"""The tau-classes found once by the recursion's flow tree, used everywhere.

A node of 2 to 4 classes runs its base case on its own network, each
class one source or sink set, and reads the bipartitions that its flow
tree's exact solves answer (a node of 2 reads its one bipartition).
The reference below is the earlier code, kept as it was: contract the
classes and run `_base_case` on the merged node.  The +1 checks run
over the root's classes; the reference is the check with one flow per
terminal.
"""

from __future__ import annotations

import itertools
import random

import pytest

from steineraug import flow, matching, supreme
from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, star_graph, steiner_connectivity
from steineraug.pipeline import augment_pipeline, splitoff_pipeline
from steineraug.supreme import _base_case, _flow_tree, supreme_forest

from conftest import (label_sets, network, random_connected, terminal_free,
                      tree_plus_2n, weight_map)
from perturb_reference import _contract, _expand
from test_local_flows import _components
from test_supreme import _two_clusters


# ---- reference: the base case on the merged node ------------------------------

def _merged_base_case(terminals, weights, labels, classes):
    """`_base_case` on the node with each class of 2 or more terminals
    contracted, its sets expanded to original vertices (`labels` being
    each vertex's set)."""
    _, merged, weights, labels = _contract(
        [K for K in classes.values() if len(K) > 1], terminals, weights,
        labels)
    net = network(len(labels), weights)
    fam, low = _base_case(net, [[t] for t in sorted(merged)],
                          terminal_free(net, merged))
    return [(_expand(X, labels), d) for X, d in fam.items()], low


# ---- tests -------------------------------------------------------------------

def test_class_base_case_matches_the_merged_node(monkeypatch):
    """At every recursion node of at most 4 classes: the same sets, in
    the same order, with the same values, and the same least value as
    the merged node's base case.  Nodes of 2, 3 and 4 classes that
    merged terminals all occur."""
    real = supreme._recurse
    seen = {2: 0, 3: 0, 4: 0}

    def checked(terminals, net, labels, free, stats, depth, limit):
        weights = weight_map(net)
        fam, low = real(terminals, net, labels, free, stats, depth, limit)
        # The reference takes each vertex's original set.
        labels = label_sets(labels, net.n)
        ts = sorted(terminals)
        _, classes, _ = _flow_tree(network(len(labels), weights), ts,
                                   limit)
        if len(classes) <= 4:
            want = _merged_base_case(terminals, weights, labels, classes)
            assert (list(fam.items()), low) == want, (depth, classes)
            if len(classes) < len(ts):
                seen[len(classes)] += 1
        return fam, low

    monkeypatch.setattr(supreme, "_recurse", checked)
    graphs = ([random_connected(idx) for idx in range(150)]
              + [_components(idx) for idx in range(30)]
              + [tree_plus_2n(n, 31337 + n, n // 3) for n in (30, 45, 60)])
    for g in graphs:
        lam = steiner_connectivity(g)
        for tau in (lam + 1, lam + 2, lam + 3):
            supreme_forest(g, tau=tau)
    assert min(seen.values()) > 0, seen


def test_two_class_root_costs_one_flow_tree():
    """A root of two tau-classes takes |T| - 1 flows, all in its flow
    tree, and no base-case flow; its base case is counted as one of 2.
    The two K4s of `_two_clusters` are its tau-classes at tau = 2..6."""
    graphs = [(_two_clusters(), tau) for tau in range(2, 7)]
    n = 200
    g = tree_plus_2n(n, 31337 + n, n // 3)
    graphs.append((g, steiner_connectivity(g) + 1))
    for g, tau in graphs:
        stats: dict = {}
        before = flow.max_flow_call_count()
        supreme_forest(g, stats=stats, tau=tau)
        assert flow.max_flow_call_count() - before == len(g.terminals) - 1
        assert stats["base_cases"] == {2: 1} and len(stats["classes"]) == 2
        assert stats["merged"] == len(g.terminals) - 2, stats


def test_base_case_read_of_a_class_splitting_side_raises():
    """A base case reads a flow-tree solve only as the bipartition of its
    classes that the solve's side makes; a side that splits a class, or
    holds all of them or none, stops the recursion, also under -O.  The
    two K4s of `_two_clusters` are the tau-classes at tau = 3."""
    g = _two_clusters()
    net = supreme.perturb(g)
    groups = [list(range(4)), list(range(4, 8))]
    limit = 3 * (1 << (len(net.to) // 2)) + 1
    _, classes, solved = _flow_tree(net, list(range(8)), limit)
    assert sorted(classes.values()) == groups and len(solved) == 1
    want = _base_case(net, groups, frozenset())
    assert _base_case(net, groups, frozenset(), solved) == want
    (X, d), = solved
    for side in (X ^ {0, 4}, X - {min(X)}, frozenset(), frozenset(range(8))):
        with pytest.raises(RuntimeError, match="no bipartition"):
            _base_case(net, groups, frozenset(), [(side, d)])


def test_root_classes_are_recorded_and_reported():
    """`stats["classes"]` partitions the terminals into the root's
    tau-classes, two terminals sharing a class exactly when they are
    tau-connected, and the augment report gives their count."""
    for idx in range(60):
        g = random_connected(idx)
        lam = steiner_connectivity(g)
        for tau in (lam + 1, lam + 3):
            stats: dict = {}
            supreme_forest(g, stats=stats, tau=tau)
            classes = stats["classes"]
            assert sorted(t for K in classes for t in K) == \
                sorted(g.terminals), idx
            cls = {t: i for i, K in enumerate(classes) for t in K}
            for a, b in itertools.combinations(sorted(g.terminals), 2):
                lam_ab = steiner_connectivity(
                    Graph(g.n, g.edges, frozenset({a, b})))
                assert (lam_ab >= tau) == (cls[a] == cls[b]), (idx, a, b)
            _, report = augment_pipeline(g, tau, seed=idx)
            if "supreme" in report:
                assert report["supreme"]["classes"] == len(classes), idx


def _corpus_stars():
    """test_04-style stars (an even optimal external solution as x's
    star) and stars of random budgets."""
    for idx in range(120):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        if conn >= 1:
            for tau in (conn + 1, conn + 2):
                f = supreme_forest(g)
                f.compute_rdem(tau)
                beta = make_even(external_augment(f, tau)).beta
                if len([u for u, w in beta.items() if w > 0]) >= 2:
                    yield star_graph(g, beta)
        rng = random.Random(idx)
        beta = {u: rng.randint(1, 3) for u in range(g.n) if rng.random() < 0.6}
        if len(beta) >= 2:
            if sum(beta.values()) % 2:
                beta[next(iter(beta))] += 1
            yield star_graph(g, beta)


def test_class_checks_decide_as_the_terminal_checks(monkeypatch):
    """Every sampled matching of the +1 step, in augment and splitoff
    runs: the check over the root's classes decides as the check with
    one flow per terminal, at no more flows; some checks fail, and
    some run over classes of 2 or more terminals."""
    real = matching.is_feasible_partial
    decided = {True: 0, False: 0}
    merged = 0

    def both(g_cur, K_remaining, M, tau, classes=None):
        nonlocal merged
        before = flow.max_flow_call_count()
        ok = real(g_cur, K_remaining, M, tau, classes)
        calls = flow.max_flow_call_count() - before
        assert classes is not None
        assert calls <= len(classes) - 1
        assert ok == real(g_cur, K_remaining, M, tau)
        decided[ok] += 1
        merged += len(classes) < len(g_cur.terminals)
        return ok

    monkeypatch.setattr(matching, "is_feasible_partial", both)
    for idx in range(150):
        g = random_connected(idx)
        lam = steiner_connectivity(g)
        for tau in (lam + 1, lam + 2, lam + 3):
            if tau >= 2:
                augment_pipeline(g, tau, seed=idx)
    for n in (30, 45, 60, 90):
        g = tree_plus_2n(n, 31337 + n, n // 3)
        for bump in (1, 3):
            augment_pipeline(g, steiner_connectivity(g) + bump, seed=n)
    for seed in range(20):               # augment-wide's shape
        g = tree_plus_2n(48, 500 + seed, 16)
        for bump in (1, 3, 10):
            augment_pipeline(g, steiner_connectivity(g) + bump, seed=seed)
    for gx, x in _corpus_stars():
        try:
            splitoff_pipeline(gx, x, seed=x)
        except ValueError:  # a rejected star: a cut edge to x
            pass
    assert decided[True] > 0 and decided[False] > 0, decided
    assert merged > 0
