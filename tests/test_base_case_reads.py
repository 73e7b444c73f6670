"""A base case reads every bipartition its node's flow tree already solved.

An exact flow-tree solve u -> cls[p] below the limit splits no
tau-class, so its minimal source side X is the minimal source side of
the bipartition of the classes that X makes, with the same value (the
`supreme` module docstring says why).  Here every side a base case reads
must be the source side, sink side and value of a fresh solve of its
bipartition, and the whole base case must equal `_base_case` with no
reads: the same sets in the same order, with the same values, and the
same least value.

With the reads, a node of up to 4 classes is a base case on its own
network.  The reference below is the recursion as it was before, kept
as it was: a node of 4 or more classes merges them and splits, and only
a node of 2 classes reads its one exact solve.  Both give the same
forests and pipeline outputs, and no instance makes more flows than the
reference.
"""

from __future__ import annotations

from collections import Counter

import pytest

from steineraug import flow, supreme
from steineraug.cli import parse_graph_text
from steineraug.graph import steiner_connectivity
from steineraug.pipeline import augment_pipeline, splitoff_pipeline
from steineraug.supreme import (_balanced_split, _base_case, _contract,
                                _expand, _flow_tree)

from conftest import random_connected, sink_side, tree_plus_2n
from test_perturb_layout import SPLITOFF_POOL, _augment_pool
from test_supreme import _disconnected


# ---- reference: the recursion before the reads ------------------------------

def _recurse_before(terminals, net, labels, free, stats, depth, limit):
    """`supreme._recurse` before its base cases read their flow trees: a
    node of 2 classes reads its tree's one exact solve, one of 3 solves
    all its bipartitions, and one of 4 or more merges its classes and
    splits."""
    stats["max_depth"] = max(stats["max_depth"], depth)
    layers = stats["layer_vertices"]
    layers[depth] = layers.get(depth, 0) + net.n
    ts = sorted(terminals)
    groups, solved = [[t] for t in ts], []
    if len(ts) > 3:
        tree, classes, solved = _flow_tree(net, ts, limit)
        low = min(tree)[0]
        stats["capped"] += len(ts) - len(classes)
        if depth == 0:
            stats["classes"] = list(classes.values())
        if len(classes) == 1:
            stats["pruned"] += 1
            return {}, low
        stats["merged"] += len(ts) - len(classes)
        groups = sorted(classes.values(), key=lambda K: len(K) > 1)
        if 3 < len(groups) < len(ts):
            phi, terminals, net, labels, free = _contract(
                [K for K in groups if len(K) > 1], terminals, net, labels,
                free)
            tree = [(c, phi[u], phi[p]) for c, u, p in tree if c != limit]
            ts = sorted(terminals)
    if len(groups) <= 3:
        counts = stats["base_cases"]
        counts[len(groups)] = counts.get(len(groups), 0) + 1
        fam, low = _base_case(net, groups, free,
                              solved if len(groups) == 2 else ())
        return {_expand(X, labels): d for X, d in fam.items()}, low
    S1 = _balanced_split(net, ts, tree)
    S2 = frozenset(range(net.n)) - S1
    s2_orig = _expand(S2, labels)
    node = _contract([S1], terminals, net, labels, free)[1:]
    F1 = _recurse_before(*node, stats, depth + 1, limit)[0]
    node = _contract([S2], terminals, net, labels, free)[1:]
    F2 = _recurse_before(*node, stats, depth + 1, limit)[0]
    return F1 | {X: d for X, d in F2.items() if not s2_orig <= X}, low


# ---- the checks ------------------------------------------------------------

@pytest.fixture
def reads(monkeypatch):
    """While the test runs, every base case is checked against fresh
    solves of the bipartitions it reads and against itself with no reads,
    and one that reads must read k - 1 distinct bipartitions of its k
    classes and make 2^(k-1) - k flows; returns the base cases that read,
    per class count, and the flows the checks made (`checks`), which the
    recursion did not."""
    seen: Counter = Counter()

    def checked(net, groups, free, solved=()):
        before = flow.max_flow_call_count()
        fam, low = _base_case(net, groups, free, solved)
        k, made = len(groups), flow.max_flow_call_count() - before
        T = frozenset(t for K in groups for t in K)
        if solved:
            assert len({X & T for X, _ in solved}) == k - 1, groups
            assert made == 2 ** (k - 1) - k, groups
        before = flow.max_flow_call_count()
        for X, d in solved:
            res = flow.max_flow(net, sorted(X & T), sorted(T - X))
            assert (res.source_side, sink_side(net, T - X, res),
                    res.value) == \
                (X, supreme._sink_side(net, X, free), d), sorted(X)
        want, want_low = _base_case(net, groups, free)
        assert list(fam.items()) == list(want.items()) and low == want_low
        seen[k] += bool(solved)
        seen["checks"] += flow.max_flow_call_count() - before
        return fam, low

    monkeypatch.setattr(supreme, "_base_case", checked)
    return seen


def _counted(monkeypatch, reads, recurse, run):
    """run() with `recurse` as the recursion, and the flows it made."""
    with monkeypatch.context() as m:
        m.setattr(supreme, "_recurse", recurse)
        before, checks = flow.max_flow_call_count(), reads["checks"]
        out = run()
        return out, (flow.max_flow_call_count() - before
                     - (reads["checks"] - checks))


def _signature(f, tau):
    if tau is not None:
        f.compute_rdem(tau)
    return sorted((sorted(f.nodes[i].terminals), f.nodes[i].c,
                   sorted(f.nodes[i].mu_tilde)) for i in f.live())


def _compare_forests(monkeypatch, reads, cases):
    """Each (g, tau): the same forest (after `compute_rdem(tau)`) as the
    reference, at no more flows; returns the flows of both."""
    total = [0, 0]
    for g, tau in cases:
        def run():
            return _signature(supreme.supreme_forest(g, tau=tau), tau)
        got, flows = _counted(monkeypatch, reads, supreme._recurse, run)
        want, ref_flows = _counted(monkeypatch, reads, _recurse_before, run)
        assert got == want, (sorted(g.terminals), tau)
        assert flows <= ref_flows, (sorted(g.terminals), tau)
        total[0] += flows
        total[1] += ref_flows
    return total


def test_corpus_reads_match_fresh_solves(monkeypatch, reads):
    """random_connected(0..199) without tau and at tau = lambda + 1..3,
    the disconnected corpus and test_08's generator: nodes of 2, 3 and 4
    classes read, and fewer flows in all."""
    cases = []
    for idx in range(200):
        g = random_connected(idx)
        lam = steiner_connectivity(g)
        cases += [(g, tau) for tau in (None, lam + 1, lam + 2, lam + 3)]
    for idx in range(100):
        cases += [(_disconnected(idx), tau) for tau in (None, 2, 3)]
    for n in (30, 60, 120, 200):
        g = tree_plus_2n(n, 31337 + n, n // 3)
        lam = steiner_connectivity(g)
        cases += [(g, tau) for tau in (None, lam + 1, lam + 3)]
    flows, ref_flows = _compare_forests(monkeypatch, reads, cases)
    assert flows < ref_flows, (flows, ref_flows)
    assert min(reads[k] for k in (2, 3, 4)) > 0, reads


def test_pool_outputs_match_the_reference(monkeypatch, reads):
    """The 18 benchmark pool entries: the same edges and report, flow
    counts and the recursion's own report aside, at no more flows."""
    cases = [(augment_pipeline, g, tau) for g, tau in
             [*_augment_pool("augment-wide", 48, 16, (1, 3, 10)),
              *_augment_pool("augment-few-terminals", 400, 6, (3,))]]
    stars = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(stars) == 6
    for path in stars:
        g, _ = parse_graph_text(path.read_text())
        cases.append((splitoff_pipeline, g, g.n - 1))
    total = [0, 0]
    for i, (pipeline, g, arg) in enumerate(cases):
        def run():
            adds, report = pipeline(g, arg, seed=0)
            del report["max_flow_calls"]
            report.pop("supreme", None)
            return adds.entries, report
        got, flows = _counted(monkeypatch, reads, supreme._recurse, run)
        want, ref_flows = _counted(monkeypatch, reads, _recurse_before, run)
        assert got == want and flows <= ref_flows, i
        total[0] += flows
        total[1] += ref_flows
    assert total[0] < total[1], total
    assert reads[2] > 0 and reads[3] > 0, reads
