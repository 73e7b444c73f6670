"""Shared fixtures: the four reference graphs and a random-graph corpus.

Vertex naming in the fixtures (ids in parentheses):
- path:   s(0) - v(1) - t(2), unit weights, terminals {s, t}.
- cyc4:   unit 4-cycle v1(0) v2(1) v3(2) v4(3), all terminals.
- expo(n): s(0), v_1(1) .. v_{n-2}(n-2), t(n-1); unit edges (s, v_i)
  and one edge (s, t) of weight 3; terminals {s, t}.
- split:  expo(4) plus budgets beta = {s:0, v1:1, v2:0, t:1}.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from steineraug import supreme
from steineraug.chains import ChainScheduler
from steineraug.flow import FlowNetwork
from steineraug.graph import Graph


def g_path() -> Graph:
    return Graph.build(3, [(0, 1, 1), (1, 2, 1)], [0, 2])


def g_cyc4() -> Graph:
    return Graph.build(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)],
                       [0, 1, 2, 3])


def g_cycle(n: int) -> Graph:
    return Graph.build(n, [(i, (i + 1) % n, 1) for i in range(n)], range(n))


def g_expo(n: int) -> Graph:
    edges = [(0, i, 1) for i in range(1, n - 1)] + [(0, n - 1, 3)]
    return Graph.build(n, edges, [0, n - 1])


def g_split() -> tuple[Graph, dict[int, int]]:
    return g_expo(4), {0: 0, 1: 1, 2: 0, 3: 1}


def random_connected(idx: int, n_max: int = 10, w_max: int = 5) -> Graph:
    """Deterministic corpus member #idx: random connected graph with a
    random terminal subset of size >= 2."""
    rng = random.Random(0xC0FFEE + idx)
    n = rng.randint(3, n_max)
    edges = [(rng.randrange(v), v, rng.randint(1, w_max))
             for v in range(1, n)]
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), rng.randint(1, w_max)))
    terminals = rng.sample(range(n), rng.randint(2, n))
    return Graph.build(n, edges, terminals)


def tree_plus_2n(n: int, seed: int, n_terminals: int) -> Graph:
    """test_08's generator: a random spanning tree plus 2n random edges,
    weights 1..5, and `n_terminals` random terminals."""
    rng = random.Random(seed)
    edges = [(rng.randrange(v), v, rng.randint(1, 5))
             for v in range(1, n)]
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), rng.randint(1, 5)))
    return Graph.build(n, edges, rng.sample(range(n), n_terminals))


def network(n: int, weights) -> FlowNetwork:
    """The arc-list constructor's undirected network on the items of the
    weight map `weights`, (u, v) -> w, in its key order."""
    return FlowNetwork(n, [(u, v, w) for (u, v), w in weights.items()],
                       False)


def sink_side(net, sinks, res) -> frozenset[int]:
    """Reference for the minimal sink side of `res`, a solve of `net`
    into `sinks`, which the package reads with no search of its residual
    graph: the vertices that reach a sink over arcs of residual
    capacity."""
    head, to, residual = net.head, net.to, res.residual
    seen = set(sinks)
    queue = list(seen)
    for v in queue:
        for a in head[v]:
            u = to[a]
            if residual[a ^ 1] and u not in seen:
                seen.add(u)
                queue.append(u)
    return frozenset(queue)


def arc_flows(net, res) -> tuple[int, ...]:
    """The flow of `res`, a solve of `net`, on each arc pair i, u -> v
    (< 0: v -> u on an undirected network): net.cap[2i] - residual[2i]."""
    return tuple(c - r for c, r in zip(net.cap[::2], res.residual[::2]))


def weight_map(net) -> dict[tuple[int, int], int]:
    """An undirected network's weights: (u, v) -> capacity of each arc
    pair u -> v, in arc order, read off its `to` and `cap` slices."""
    to = net.to
    return dict(zip(zip(to[1::2], to[::2]), net.cap[::2]))


def label_sets(labels, n: int) -> list[frozenset[int]]:
    """A supreme recursion node's labels (None at the root, else a list
    of original vertices and a map of the merged vertices' sets) as the
    list of each vertex's original vertex set."""
    if labels is None:
        return [frozenset({v}) for v in range(n)]
    ids, merged = labels
    return [merged.get(v, frozenset({ids[v]})) for v in range(n)]


def terminal_free(net, terminals) -> frozenset[int]:
    """The vertices of `net` that no terminal reaches over its arcs."""
    seen, stack = set(terminals), list(terminals)
    while stack:
        v = stack.pop()
        for a in net.head[v]:
            if net.to[a] not in seen:
                seen.add(net.to[a])
                stack.append(net.to[a])
    return frozenset(range(net.n)) - seen


# ---- complexity bounds, checked on every forest and chain phase -------------

def check_recursion_bounds(g: Graph, stats: dict) -> None:
    """The supreme recursion's depth is at most 25 ln|T| + 5, and the
    vertex total of each of its layers at most 8 n ln n."""
    depth = stats["max_depth"]
    bound = 25 * math.log(max(len(g.terminals), 2)) + 5
    assert depth <= bound, f"recursion depth {depth} exceeds {bound}"
    cap = 8 * g.n * max(1.0, math.log(max(g.n, 2)))
    for layer, total in stats["layer_vertices"].items():
        assert total <= cap, \
            f"layer {layer} vertex total {total} exceeds {cap}"


def check_chain_bounds(sched: ChainScheduler) -> None:
    """A chain phase fires each event cause at most 3 F + n times, F the
    forest nodes ever made, and at most 16 n events and 16 n chain-edge
    updates in all."""
    n = sched.g.n
    for cause, count in sched.event_counts.items():
        assert count <= 3 * sched.forest._next_id + n, \
            f"event cause {cause} fired {count} times"
    total = sum(sched.event_counts.values())
    assert total <= 16 * n, f"chain events {total} exceed {16 * n}"
    assert sched.edge_update_count <= 16 * n, \
        f"chain-edge updates {sched.edge_update_count} exceed {16 * n}"


@pytest.fixture(autouse=True, scope="session")
def complexity_bounds():
    """For the whole session, every forest the recursion finds and every
    chain phase that runs is checked against its bounds; yields the
    counts of forests (`supreme.find_supreme_candidates` calls) and of
    chain phases (`ChainScheduler.run` calls) checked so far."""
    find, run = supreme.find_supreme_candidates, ChainScheduler.run
    checked: Counter = Counter()

    def checked_find(g, net, stats=None, tau=None):
        stats = {} if stats is None else stats
        fam = find(g, net, stats=stats, tau=tau)
        check_recursion_bounds(g, stats)
        checked["forests"] += 1
        return fam

    def checked_run(sched):
        adds = run(sched)
        check_chain_bounds(sched)
        checked["chain_phases"] += 1
        return adds

    supreme.find_supreme_candidates = checked_find
    ChainScheduler.run = checked_run
    yield checked
    supreme.find_supreme_candidates = find
    ChainScheduler.run = run


@pytest.fixture
def path():
    return g_path()


@pytest.fixture
def cyc4():
    return g_cyc4()


def expiration_bruteforce(sched: ChainScheduler, chain) -> int:
    """Reference for ChainScheduler.expiration: eager one-copy-at-a-time
    simulation of the same stopping rule."""
    d_f = chain.d_F()
    rem = {s: s.remaining for s in d_f}
    cval = {i: sched.c(i) for i in sched.forest.live()}
    rate = sched.rates(chain)
    t = 0
    while True:
        if any(rem[s] < d for s, d in d_f.items()):
            return t
        for s, d in d_f.items():
            rem[s] -= d
        for i, rr in rate.items():
            cval[i] += rr
        t += 1
        if any(sched.tau - cval[r] <= 1 for r in chain.roots):
            return t
        if any(cval[r] >= cval[w]
               for r in rate for w in sched.forest.children(r)):
            return t


@pytest.fixture
def checked_expiration(monkeypatch):
    """Every ChainScheduler.expiration call in the test also asserts that
    it equals expiration_bruteforce."""
    expiration = ChainScheduler.expiration

    def checked(sched, chain):
        t = expiration(sched, chain)
        sim = expiration_bruteforce(sched, chain)
        assert t == sim, f"t_F {t} != simulated {sim}"
        return t

    monkeypatch.setattr(ChainScheduler, "expiration", checked)
