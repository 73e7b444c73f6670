"""The prepared flow network against the per-call path it replaced.

The reference below is the earlier flow layer, kept as it was: the
edges re-sorted per call (`_graph_arcs`), a frozen network with a super
source and a super sink, the standalone Dinic kernel with one residual
pair per arc (so four per undirected edge), and the backward residual
walk for the minimal sink side.  Undirected cuts must agree in value
and both minimal sides, which do not depend on the max flow found; the
directed H networks of the external phase must agree arc for arc,
because the phase reads their per-arc flows.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from steineraug import deg_external, flow
from steineraug.cli import parse_graph_text
from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, star_graph, steiner_connectivity
from steineraug.pipeline import splitoff_pipeline
from steineraug.supreme import perturb, supreme_forest

from conftest import random_connected

SPLITOFF_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "splitoff"


# ---- reference: the per-call flow path -------------------------------------

@dataclass(frozen=True)
class RefNetwork:
    n: int
    arcs: tuple[tuple[int, int, Optional[int]], ...]
    sources: frozenset[int]
    sinks: frozenset[int]

    def __post_init__(self) -> None:
        if self.sources & self.sinks:
            raise ValueError("sources and sinks must be disjoint")
        if not self.sources or not self.sinks:
            raise ValueError("need at least one source and one sink")
        for (u, v, c) in self.arcs:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"arc endpoint out of range: {(u, v)}")
            if c is not None and c < 0:
                raise ValueError(f"negative capacity: {(u, v, c)}")


def ref_kernel(n, src, dst, cap, s, t):
    m = len(src)
    head = [[] for _ in range(n)]
    to, capacity = [], []
    for i in range(m):
        head[src[i]].append(2 * i)
        to.append(dst[i])
        capacity.append(cap[i])
        head[dst[i]].append(2 * i + 1)
        to.append(src[i])
        capacity.append(0)
    total = 0
    level = [0] * n
    iter_idx = [0] * n
    while True:
        for i in range(n):
            level[i] = -1
        level[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for a in head[u]:
                v = to[a]
                if capacity[a] > 0 and level[v] < 0:
                    level[v] = level[u] + 1
                    queue.append(v)
        if level[t] < 0:
            break
        for i in range(n):
            iter_idx[i] = 0
        while True:
            path = []
            u = s
            pushed = 0
            while True:
                if u == t:
                    pushed = min(capacity[a] for a in path)
                    for a in path:
                        capacity[a] -= pushed
                        capacity[a ^ 1] += pushed
                    break
                advanced = False
                while iter_idx[u] < len(head[u]):
                    a = head[u][iter_idx[u]]
                    v = to[a]
                    if capacity[a] > 0 and level[v] == level[u] + 1:
                        path.append(a)
                        u = v
                        advanced = True
                        break
                    iter_idx[u] += 1
                if advanced:
                    continue
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                iter_idx[u] += 1
            if pushed == 0:
                break
            total += pushed
    reachable = {s}
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for a in head[u]:
            v = to[a]
            if capacity[a] > 0 and v not in reachable:
                reachable.add(v)
                queue.append(v)
    flows = [cap[i] - capacity[2 * i] for i in range(m)]
    return total, flows, reachable


def ref_max_flow(net: RefNetwork):
    inf = sum(c for (_, _, c) in net.arcs if c is not None) + 1
    n = net.n
    src = [u for (u, _, _) in net.arcs]
    dst = [v for (_, v, _) in net.arcs]
    cap = [inf if c is None else c for (_, _, c) in net.arcs]
    m_net = len(src)
    s, t = n, n + 1
    for u in sorted(net.sources):
        src.append(s)
        dst.append(u)
        cap.append(inf)
    for u in sorted(net.sinks):
        src.append(u)
        dst.append(t)
        cap.append(inf)
    value, flows, reachable = ref_kernel(n + 2, src, dst, cap, s, t)
    if value >= inf:
        raise flow.NoFiniteCutError("no finite cut")
    return value, tuple(flows[:m_net]), frozenset(v for v in reachable if v < n)


def _graph_arcs(g, weights=None):
    coal = g.coalesced() if weights is None else weights
    arcs = []
    for (u, v), w in sorted(coal.items()):
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    return arcs


def ref_min_cut_sides(g, A, B, weights=None):
    """(value, minimal A side, minimal B side) by the reference path."""
    A, B = frozenset(A), frozenset(B)
    if not A or not B or (A & B):
        raise ValueError("A and B must be nonempty and disjoint")
    arcs = _graph_arcs(g, weights)
    value, flows, side = ref_max_flow(RefNetwork(g.n, tuple(arcs), A, B))
    back = {v: [] for v in range(g.n)}
    for i, (u, v, c) in enumerate(arcs):
        if c - flows[i] > 0:
            back[v].append(u)
        if flows[i] > 0:
            back[u].append(v)
    reach_sink = set(B)
    queue = deque(B)
    while queue:
        v = queue.popleft()
        for u in back[v]:
            if u not in reach_sink:
                reach_sink.add(u)
                queue.append(u)
    return value, side, frozenset(reach_sink)


# ---- undirected cuts ------------------------------------------------------

def _random_multigraph(rng: random.Random) -> Graph:
    """Parallel edges, and often a second component holding terminals."""
    n = rng.randint(3, 14)
    split = rng.randint(2, n - 1) if rng.random() < 0.3 else n
    edges = []
    for lo, hi in ((0, split), (split, n)):
        for v in range(lo + 1, hi):
            edges.append((rng.randrange(lo, v), v, rng.randint(1, 6)))
    for _ in range(rng.randint(0, 2 * n)):
        u, v = rng.sample(range(n), 2)
        edges.append((u, v, rng.randint(1, 6)))
    return Graph.build(n, edges, rng.sample(range(n), rng.randint(2, n)))


def _bipartitions(rng: random.Random, g: Graph, count: int):
    ts = sorted(g.terminals)
    for _ in range(count):
        rng.shuffle(ts)
        k = rng.randint(1, len(ts) - 1)
        A, B = ts[:k], ts[k:]
        if rng.random() < 0.5:           # also cut between non-terminals
            others = [v for v in range(g.n) if v not in ts]
            rng.shuffle(others)
            A = A + others[:rng.randint(0, len(others))]
        yield A, B


def test_undirected_cuts_match_reference():
    rng = random.Random(2024)
    checked = 0
    for trial in range(150):
        g = _random_multigraph(rng)
        weight_maps = [None, perturb(g).weights,
                       {e: rng.getrandbits(100) + 1
                        for e in g.coalesced()}]
        for weights in weight_maps:
            net = flow.FlowNetwork.undirected(g, weights)
            for A, B in _bipartitions(rng, g, 4):
                res = flow.max_flow(net, A, B)
                assert (res.value, res.source_side, res.sink_side) == \
                    ref_min_cut_sides(g, A, B, weights)
                checked += 1
    assert checked == 1800


def test_undirected_cuts_on_corpus_match_reference():
    for idx in range(60):
        g = random_connected(idx, n_max=12)
        weights = perturb(g).weights
        net = flow.FlowNetwork.undirected(g, weights)
        ts = sorted(g.terminals)
        for t in ts[1:]:
            res = flow.max_flow(net, ts[:1], [t])
            assert (res.value, res.source_side, res.sink_side) == \
                ref_min_cut_sides(g, ts[:1], [t], weights)


def test_capped_and_finished_cuts_match_reference():
    """A solve capped at a limit stops, with no source side, exactly when
    the reference value reaches the limit, and is otherwise the
    reference cut; a stopped solve finished from its residual is the
    reference cut, on perturbed and 100-bit weights too."""
    rng = random.Random(2025)
    stopped = 0
    for trial in range(80):
        g = _random_multigraph(rng)
        for weights in (None, perturb(g).weights,
                        {e: rng.getrandbits(100) + 1 for e in g.coalesced()}):
            net = flow.FlowNetwork.undirected(g, weights)
            for A, B in _bipartitions(rng, g, 3):
                want = ref_min_cut_sides(g, A, B, weights)
                limit = rng.choice([want[0], want[0] + 1,
                                    rng.randint(1, 2 * want[0] + 1)])
                res = flow.max_flow(net, A, B, limit)
                if want[0] >= limit:
                    assert res.source_side is None and res.value >= limit
                    res = res.finish()
                    stopped += 1
                assert (res.value, res.source_side, res.sink_side) == want
    assert stopped > 100, stopped


# ---- directed H networks --------------------------------------------------

def _recorded_h_networks(monkeypatch, solve) -> list:
    nets = []
    build_H = deg_external.build_H

    def recording(state, path):
        net, meta = build_H(state, path)
        nets.append((net, meta))
        return net, meta

    monkeypatch.setattr(deg_external, "build_H", recording)
    solve()
    monkeypatch.undo()
    return nets


def _assert_h_flows_match(nets) -> None:
    for net, meta in nets:
        src, sink = meta["source"], meta["sink"]
        res = flow.max_flow(net, [src], [sink])
        ref = ref_max_flow(RefNetwork(net.n, net.arcs, frozenset({src}),
                                      frozenset({sink})))
        assert (res.value, res.flows, res.source_side) == ref


def test_h_network_flows_match_reference_on_corpus(monkeypatch):
    def solve():
        for idx in range(30):
            g = random_connected(idx)
            conn = steiner_connectivity(g)
            tau = conn + 1 + (idx % 2)
            if conn < 1:
                continue
            forest = supreme_forest(g)
            forest.compute_rdem(tau)
            beta = make_even(external_augment(forest, tau)).beta
            if len([u for u, w in beta.items() if w > 0]) < 2:
                continue
            gx, x = star_graph(g, beta)
            splitoff_pipeline(gx, x, seed=idx)

    nets = _recorded_h_networks(monkeypatch, solve)
    assert len(nets) >= 30
    _assert_h_flows_match(nets)


def test_h_network_flows_match_reference_on_bench_pool(monkeypatch):
    files = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(files) == 6

    def solve():
        for path in files:
            g, _ = parse_graph_text(path.read_text())
            splitoff_pipeline(g, g.n - 1, seed=0)

    nets = _recorded_h_networks(monkeypatch, solve)
    assert len(nets) >= 6
    _assert_h_flows_match(nets)


# ---- errors ---------------------------------------------------------------

def test_bad_terminal_sets_and_infinite_paths_raise():
    net = flow.FlowNetwork.undirected(random_connected(3))
    for A, B in (([], [1]), ([0], []), ([0, 1], [1, 2])):
        with pytest.raises(ValueError):
            flow.max_flow(net, A, B)
    inf_path = flow.FlowNetwork(3, ((0, 1, None), (1, 2, None), (0, 2, 4)))
    with pytest.raises(flow.NoFiniteCutError):
        flow.max_flow(inf_path, [0], [2])
    assert flow.max_flow(inf_path, [1], [0]).value == 0
