"""The supreme recursion reads each minimal sink side with no search.

A base case (`supreme._base_case`) takes each solve's minimal sink side
as the node's vertices minus its minimal source side and minus F, the
vertices whose component holds no terminal (the `supreme` module
docstring says why that is exact), whether it made the solve or read it
off its node's flow tree.  F is found once at the root and carried by
`supreme._contract`.  Here every such read must equal
`conftest.sink_side`, a search of the residual graph, on a fresh solve
of the same bipartition, and every node's F must equal a search from
its terminals: at each recursion node, and after each contraction, the
split children and the class merge included.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from steineraug import flow, supreme
from steineraug.cli import parse_graph_text
from steineraug.graph import Graph, steiner_connectivity
from steineraug.pipeline import augment_pipeline, splitoff_pipeline

from conftest import random_connected, sink_side, terminal_free, tree_plus_2n
from test_perturb_layout import SPLITOFF_POOL, _augment_pool, _multigraph


@pytest.fixture
def checked(monkeypatch):
    """While the test runs, every sink side the recursion reads is checked
    against the residual search of a fresh solve of its bipartition, and
    every node's and every contracted node's F against a search from its
    terminals; returns the counts, of sides read off a flow tree
    (`read`) and of sides of the base case's own flows (`made`)."""
    seen: Counter = Counter()
    frames: list[dict] = []     # per recursion frame
    read_side, recurse, contract = (supreme._sink_side, supreme._recurse,
                                    supreme._contract)
    flow_tree, balanced_split = supreme._flow_tree, supreme._balanced_split

    def checked_sink_side(net, X, free):
        got = read_side(net, X, free)
        frame = frames[-1]
        T = frame["terminals"]
        res = flow.max_flow(net, sorted(X & T), sorted(T - X))
        assert res.source_side == X and got == sink_side(net, T - X, res), \
            (X, free)
        where = "read" if X in frame.get("tree", ()) else "made"
        seen[where] += 1
        seen[where + "_free"] += bool(free)
        return got

    def checked_tree(*args, **kwargs):
        out = flow_tree(*args, **kwargs)
        frames[-1]["tree"] = {X for X, _ in out[2]}
        return out

    def checked_recurse(terminals, net, labels, free, stats, depth, limit):
        assert free == terminal_free(net, terminals), depth
        seen["nodes"] += 1
        frames.append({"terminals": terminals})
        try:
            return recurse(terminals, net, labels, free, stats, depth, limit)
        finally:
            frames.pop()

    def checked_split(*args):
        frames[-1]["split"] = True
        return balanced_split(*args)

    def checked_contract(parts, terminals, net, labels, free):
        node = contract(parts, terminals, net, labels, free)
        assert node[4] == terminal_free(node[2], node[1])
        # A node merges its classes before it splits, and splits once.
        if free:
            kind = "split" if frames[-1].get("split") else "classes"
            seen[kind + "_free"] += 1
            seen[kind + "_emptied"] += not node[4]
        return node

    monkeypatch.setattr(supreme, "_sink_side", checked_sink_side)
    monkeypatch.setattr(supreme, "_flow_tree", checked_tree)
    monkeypatch.setattr(supreme, "_recurse", checked_recurse)
    monkeypatch.setattr(supreme, "_balanced_split", checked_split)
    monkeypatch.setattr(supreme, "_contract", checked_contract)
    return seen


def _solve_all(graphs) -> None:
    """Each forest without tau and at tau = lambda + 1, + 2 and + 3."""
    for g in graphs:
        lam = steiner_connectivity(g)
        for tau in (None, lam + 1, lam + 2, lam + 3):
            supreme.supreme_forest(g, tau=tau)


def _with_free(g: Graph, rng: random.Random) -> Graph:
    """g beside a terminal-free path of 2 to 4 vertices, 1 or 2 isolated
    non-terminals and 0 to 2 isolated terminals."""
    n, edges, terminals = g.n, list(g.edges), sorted(g.terminals)
    k = rng.randint(2, 4)
    edges += [(n + i, n + i + 1, rng.randint(1, 5)) for i in range(k - 1)]
    n += k + rng.randint(1, 2)
    extra = rng.randint(0, 2)
    return Graph.build(n + extra, edges, terminals + list(range(n, n + extra)))


def _pairs(half: int, rng: random.Random) -> Graph:
    """A cycle of 2*half terminals whose every other edge weighs 3, the
    rest 1, beside a terminal-free path: at tau = 3 its tau-classes are
    the `half` heavy pairs: a base case on the node's own network at 2
    to 4, and merged before the split at 5 or more."""
    n = 2 * half
    g = Graph.build(n, [(i, (i + 1) % n, 3 - 2 * (i % 2)) for i in range(n)],
                    range(n))
    return _with_free(g, rng)


def test_pool_sink_sides_match_the_residual_search(checked):
    """Every sink side the pipelines read on the 18 pool entries, and
    those of the untruncated forests of the augment-few-terminals
    graphs, whose nodes make more base-case flows."""
    few = list(_augment_pool("augment-few-terminals", 400, 6, (3,)))
    for g, tau in [*_augment_pool("augment-wide", 48, 16, (1, 3, 10)), *few]:
        augment_pipeline(g, tau, seed=0)
    for g, _ in few:
        supreme.supreme_forest(g)
    stars = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(stars) == 6
    for path in stars:
        g, _ = parse_graph_text(path.read_text())
        splitoff_pipeline(g, g.n - 1, seed=0)
    assert checked["made"] > 50 and checked["read"] > 40, checked


def test_connected_sink_sides_match_the_residual_search(checked):
    """random_connected(0..199), test_08's generator and multigraphs."""
    _solve_all([random_connected(idx) for idx in range(200)]
               + [tree_plus_2n(n, 31337 + n, n // 3) for n in (30, 60, 120)]
               + [_multigraph(idx) for idx in range(60)])
    assert checked["made"] > 1000 and checked["read"] > 1000, checked
    assert checked["made_free"] == checked["read_free"] == 0


def test_disconnected_sink_sides_and_free_vertices(checked):
    """Graphs with isolated non-terminals, terminal-free components of 2
    or more vertices and isolated terminals: every read and every F,
    carried into split children (kept in one, emptied in the other) and
    through the class merge."""
    rng = random.Random(34)
    graphs = [_with_free(random_connected(idx, n_max=12), rng)
              for idx in range(80)]
    graphs += [_with_free(tree_plus_2n(n, 4242 + n, n // 3), rng)
               for n in (20, 40)]
    graphs += [_with_free(_multigraph(idx), rng) for idx in range(20)]
    graphs += [Graph.build(6, [(2, 3, 1), (3, 4, 2)], [0, 1]),
               Graph.build(7, [(0, 1, 1), (4, 5, 1), (5, 6, 1)],
                           [0, 1, 2, 3])]
    _solve_all(graphs)
    for half in (2, 4, 5):
        g = _pairs(half, rng)
        supreme.supreme_forest(g, tau=3)
    for key in ("made_free", "read_free", "split_free",
                "split_emptied", "classes_free"):
        assert checked[key] > 0, (key, checked)
    assert checked["classes_emptied"] == 0, checked
