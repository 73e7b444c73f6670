"""Every network of the supreme recursion is the one its weight map gave.

`supreme.perturb` lays out the root's network in the pass that makes
the perturbed weights, and `supreme._contract` lays out a contracted
node's in the pass that reads its parent's arcs.  The reference is the
earlier code, kept in `perturb_reference`: each node's weight map,
laid out by the arc-list constructor `FlowNetwork(n, arcs, False)` in
the map's key order.  Each network must have
the same adjacency lists, arc heads and capacities, arc for arc, so
the pushes, flows and forests stay the same, and an `inf` above the
sum of its capacities.  The root's is exactly that sum plus one.
"""

from __future__ import annotations

import random
from pathlib import Path

import pytest

import perturb_reference as ref
from steineraug import supreme
from steineraug.cli import parse_graph_text
from steineraug.flow import FlowNetwork
from steineraug.graph import Graph, steiner_connectivity
from steineraug.pipeline import augment_pipeline, splitoff_pipeline

from conftest import (label_sets, network, random_connected, tree_plus_2n,
                      weight_map)

SPLITOFF_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "splitoff"


def _multigraph(idx: int) -> Graph:
    """Parallel edges in both orientations, many of equal weight."""
    rng = random.Random(700 + idx)
    n = rng.randint(3, 12)
    edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
    for _ in range(rng.randint(n, 3 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, 3)))
    return Graph.build(n, edges, rng.sample(range(n), rng.randint(2, n)))


def _disconnected(idx: int) -> Graph:
    """Two corpus graphs side by side and up to 3 isolated terminals."""
    a, b = random_connected(idx, n_max=8), random_connected(300 + idx, n_max=8)
    extra = idx % 4
    edges = a.edges + tuple((u + a.n, v + a.n, w) for u, v, w in b.edges)
    terminals = (sorted(a.terminals) + [t + a.n for t in b.terminals]
                 + list(range(a.n + b.n, a.n + b.n + extra)))
    return Graph.build(a.n + b.n + extra, edges, terminals)


GRAPHS = {
    "multigraph": [_multigraph(idx) for idx in range(60)],
    "disconnected": [_disconnected(idx) for idx in range(30)]
    + [Graph.build(4, [], range(4)), Graph.build(5, [(0, 1, 2)], range(5))],
    "random_connected": [random_connected(idx, n_max=14) for idx in range(80)],
    "tree_plus_2n": [tree_plus_2n(n, 31337 + n, n // 3)
                     for n in (30, 60, 120)],
    # CI's 8-cycle whose every other edge weighs 3: at tau = 3 the root
    # merges four tau-classes of two terminals each.
    "pairs": [Graph.build(8, [(i, (i + 1) % 8, 3 - 2 * (i % 2))
                              for i in range(8)], range(8))],
}


def _same_layout(net: FlowNetwork, weights: dict) -> None:
    want = network(net.n, weights)
    assert net.n == want.n
    assert net.head == want.head
    assert net.to == want.to
    assert net.cap == want.cap
    assert net.inf >= 1 + sum(net.cap[::2])


@pytest.fixture
def checked(monkeypatch):
    """While the test runs, every `perturb` and `_contract` of the
    recursion is checked against the reference; returns the counts of
    roots, of contracted nodes and of those of 2 or more parts (merged
    tau-classes)."""
    seen = {"roots": 0, "contracted": 0, "parts": 0}
    perturb, contract = supreme.perturb, supreme._contract

    def checked_perturb(g):
        net = perturb(g)
        _same_layout(net, ref.perturb(g))
        assert net.inf == 1 + sum(net.cap[::2])
        seen["roots"] += 1
        return net

    def checked_contract(parts, terminals, net, labels, free):
        node = contract(parts, terminals, net, labels, free)
        # The reference takes and returns each vertex's original set.
        got = (*node[:3], label_sets(node[3], node[2].n))
        want = ref._contract(parts, terminals, weight_map(net),
                             label_sets(labels, net.n))
        assert (dict(enumerate(got[0])), got[1], got[3]) == \
            (want[0], want[1], want[3])
        _same_layout(got[2], want[2])
        assert got[2].inf == net.inf
        seen["contracted"] += 1
        seen["parts"] += len(parts) > 1
        return node

    monkeypatch.setattr(supreme, "perturb", checked_perturb)
    monkeypatch.setattr(supreme, "_contract", checked_contract)
    return seen


def test_recursion_networks_match_the_weight_maps(checked):
    """Without tau and at tau = lambda + 1, + 2 and + 3, whose flow
    trees merge tau-classes."""
    roots = contracted = 0
    for kind, graphs in GRAPHS.items():
        for g in graphs:
            lam = steiner_connectivity(g)
            for tau in (None, lam + 1, lam + 2, lam + 3):
                supreme.supreme_forest(g, tau=tau)
        roots += 4 * len(graphs)
        assert checked["roots"] == roots, kind
        assert checked["contracted"] > contracted, kind
        contracted = checked["contracted"]
    assert checked["parts"] > 0, checked


def _augment_pool(name: str, n: int, k: int, offsets: tuple[int, ...]):
    """The benchmark's augment pool: test_08's generator on the seeds
    `name/j`, at tau = lambda + offsets[j % len(offsets)]."""
    for j in range(6):
        g = tree_plus_2n(n, f"{name}/{j}", k)
        yield g, steiner_connectivity(g) + offsets[j % len(offsets)]


def test_benchmark_pool_networks_match_the_weight_maps(checked):
    """Every network the pipelines lay out on the 18 pool entries."""
    for g, tau in [*_augment_pool("augment-wide", 48, 16, (1, 3, 10)),
                   *_augment_pool("augment-few-terminals", 400, 6, (3,))]:
        augment_pipeline(g, tau, seed=0)
    stars = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(stars) == 6
    for path in stars:
        g, _ = parse_graph_text(path.read_text())
        splitoff_pipeline(g, g.n - 1, seed=0)
    assert checked["roots"] == 18
    assert checked["contracted"] > 0, checked
