"""The Dinic kernel against the two it replaced, push for push.

The references below are the earlier kernels, kept as they were.  The
first, `reference_kernel`, labels each phase's whole level of the
nearest sink and its DFS walks into every non-sink vertex on that
level.  The second, `first_sink_kernel`, ends each phase's BFS at the
first sink and never enters those dead ends, but still labels and
enters every vertex nearer the sources than the sink's level.  The
kernel now labels from both ends and never enters a vertex beyond the
meeting point that cannot reach a sink in time.  Since the degree-
constrained external phase reads per-arc flows, the three must agree
not only in value and minimal source side but in the whole residual
graph, after every solve and after a stopped solve is finished.
"""

from __future__ import annotations

import math
import random
from collections import deque
from pathlib import Path
from typing import Optional

from steineraug import _dinic, flow
from steineraug.cli import parse_graph_text
from steineraug.graph import steiner_connectivity
from steineraug.pipeline import augment_pipeline, splitoff_pipeline

from conftest import tree_plus_2n

SPLITOFF_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "splitoff"


# ---- reference: the kernel that labels the whole sink level -----------------

def reference_kernel(head: list[list[int]], to: list[int], cap: list[int],
                     sources: list[int], sinks: list[int],
                     limit: Optional[int] = None
                     ) -> tuple[int, Optional[frozenset[int]]]:
    """Blocking-flow max flow from `sources` to `sinks` over `cap`.

    Returns (value, source side): the source side is the vertices the
    final residual graph reaches from the sources.  With `limit`, a flow
    that reaches it returns at once, with a value >= limit and no source
    side.
    """
    stop = math.inf if limit is None else limit
    n = len(head)
    is_sink = [False] * n
    for t in sinks:
        is_sink[t] = True
    total = 0
    while True:
        # Levels by BFS, not expanded past the nearest sinks' level.
        level = [-1] * n
        for r in sources:
            level[r] = 0
        queue = deque(sources)
        depth = n
        while queue:
            u = queue.popleft()
            d = level[u] + 1
            if d > depth:
                break
            for a in head[u]:
                v = to[a]
                if cap[a] and level[v] < 0:
                    level[v] = d
                    if is_sink[v]:
                        depth = d
                    queue.append(v)
        if depth == n:
            break
        it = [0] * n
        for r in sources:
            # Augmenting paths by an iterative DFS over admissible arcs
            # (level up by one, positive residual).  After a push the walk
            # resumes at the first saturated arc: a restart from r would
            # retrace the same arcs up to it.
            path: list[int] = []
            u = r
            while True:
                if is_sink[u]:
                    pushed = min(map(cap.__getitem__, path))
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    if total >= stop:
                        return total, None
                    for j, a in enumerate(path):
                        if not cap[a]:
                            break
                    del path[j:]
                    u = to[a ^ 1]
                    continue
                arcs = head[u]
                i = it[u]
                na = len(arcs)
                nxt = level[u] + 1
                while i < na:
                    a = arcs[i]
                    if cap[a] and level[to[a]] == nxt:
                        break
                    i += 1
                it[u] = i
                if i < na:
                    path.append(a)
                    u = to[a]
                    continue
                # Dead end: never try this vertex again this phase.
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1

    return total, frozenset(v for v in range(n) if level[v] >= 0)


# ---- reference: the kernel that ends each phase at the first sink --------

def first_sink_kernel(head: list[list[int]], to: list[int], cap: list[int],
                      sources: list[int], sinks: list[int],
                      limit: Optional[int] = None
                      ) -> tuple[int, Optional[frozenset[int]]]:
    """Blocking-flow max flow from `sources` to `sinks` over `cap`.

    Returns (value, source side): the source side is the vertices the
    final residual graph reaches from the sources.  With `limit`, a flow
    that reaches it returns at once, with a value >= limit and no source
    side.
    """
    stop = math.inf if limit is None else limit
    n = len(head)
    is_sink = [False] * n
    for t in sinks:
        is_sink[t] = True
    total = 0
    while True:
        # Levels by BFS up to the first sink reached; no sink gets one.
        level = [-1] * n
        for r in sources:
            level[r] = 0
        queue = list(sources)
        for u in queue:
            d = level[u] + 1
            for a in head[u]:
                if cap[a]:
                    v = to[a]
                    if level[v] < 0:
                        if is_sink[v]:
                            break
                        level[v] = d
                        queue.append(v)
            else:
                continue
            break               # levels 0 .. d - 1 are complete
        else:
            return total, frozenset(queue)      # the minimal source side
        last = d - 1
        it = [0] * n
        for r in sources:
            # Augmenting paths by an iterative DFS over admissible arcs
            # (level up by one, or into a sink from the last level;
            # positive residual).  After a push the walk resumes at the
            # first saturated arc: a restart from r would retrace the
            # same arcs up to it.
            path: list[int] = []
            u = r
            while True:
                if is_sink[u]:
                    pushed = min(map(cap.__getitem__, path))
                    for a in path:
                        cap[a] -= pushed
                        cap[a ^ 1] += pushed
                    total += pushed
                    if total >= stop:
                        return total, None
                    for j, a in enumerate(path):
                        if not cap[a]:
                            break
                    del path[j:]
                    u = to[a ^ 1]
                    continue
                arcs = head[u]
                i = it[u]
                na = len(arcs)
                lu = level[u]
                if lu == last:
                    while i < na:
                        a = arcs[i]
                        if cap[a] and is_sink[to[a]]:
                            break
                        i += 1
                else:
                    nxt = lu + 1
                    while i < na:
                        a = arcs[i]
                        if cap[a] and level[to[a]] == nxt:
                            break
                        i += 1
                it[u] = i
                if i < na:
                    path.append(a)
                    u = to[a]
                    continue
                # Dead end: never try this vertex again this phase.
                level[u] = -1
                if not path:
                    break
                a = path.pop()
                u = to[a ^ 1]
                it[u] += 1


# ---- helpers ----------------------------------------------------------------

REFERENCES = (reference_kernel, first_sink_kernel)


def _assert_same_as_references(head, to, cap, sources, sinks,
                               limit: Optional[int] = None):
    """The kernel on `cap`, in place, and each reference on a copy: the
    same value, source side and residual.  Returns the kernel's result."""
    wants = []
    for ref in REFERENCES:
        want_cap = cap[:]
        wants.append((ref(head, to, want_cap, sources, sinks, limit),
                      want_cap))
    got = _dinic.max_flow_kernel(head, to, cap, sources, sinks, limit)
    for want, want_cap in wants:
        assert got == want and cap == want_cap
    return got


def _assert_same_solves(net: flow.FlowNetwork, sources, sinks,
                        limit: Optional[int]) -> bool:
    """The kernel and both references on copies of net's capacities, up
    to `limit` and then finished; True if the capped solve stopped."""
    cap = net.cap[:]
    args = (net.head, net.to, cap, sources, sinks)
    if _assert_same_as_references(*args, limit)[1] is not None:
        return False
    _assert_same_as_references(*args)
    return True


def _random_ends(rng: random.Random, n: int) -> tuple[list[int], list[int]]:
    vs = list(range(n))
    rng.shuffle(vs)
    k = rng.randint(1, min(3, n - 1))
    m = rng.randint(1, min(3, n - k))
    return vs[:k], vs[k:k + m]


def _checking_kernel(monkeypatch) -> list[int]:
    """Route every solve of the package through the kernel and both
    references; returns a list that counts the solves checked."""
    checked = [0]

    def all_three(head, to, cap, sources, sinks, limit=None):
        checked[0] += 1
        return _assert_same_as_references(head, to, cap, sources, sinks,
                                          limit)

    monkeypatch.setattr(flow, "_kernel_for", lambda total_cap: all_three)
    return checked


# ---- random networks --------------------------------------------------------

def test_random_directed_networks_match_reference():
    """Infinite (None) and zero capacities, several sources and sinks,
    and limits below, at and above the max flow."""
    rng = random.Random(2718)
    stopped = 0
    for trial in range(400):
        n = rng.randint(2, 12)
        arcs = []
        for _ in range(rng.randint(1, 4 * n)):
            u, v = rng.sample(range(n), 2)
            c = rng.choice([None, 0, rng.randint(1, 4), rng.randint(1, 9)])
            arcs.append((u, v, c))
        net = flow.FlowNetwork(n, arcs)
        for _ in range(3):
            sources, sinks = _random_ends(rng, n)
            limit = rng.choice([None, 0, rng.randint(1, 12)])
            stopped += _assert_same_solves(net, sources, sinks, limit)
    assert stopped > 200, stopped


def test_random_undirected_networks_with_huge_capacities_match_reference():
    rng = random.Random(1970)
    stopped = 0
    for trial in range(300):
        n = rng.randint(2, 14)
        edges = [(rng.randrange(v), v) for v in range(1, n)]
        edges += [tuple(rng.sample(range(n), 2))
                  for _ in range(rng.randint(0, 2 * n))]
        bits = rng.choice([3, 100])
        net = flow.FlowNetwork(
            n, [(u, v, rng.getrandbits(bits) + 1) for u, v in edges], False)
        for _ in range(3):
            sources, sinks = _random_ends(rng, n)
            limit = rng.choice([None, rng.getrandbits(bits + 2) + 1])
            stopped += _assert_same_solves(net, sources, sinks, limit)
    assert stopped > 100, stopped


# ---- every flow of the pipelines --------------------------------------------

def test_every_flow_of_the_splitoff_pool_matches_reference(monkeypatch):
    files = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(files) == 6
    checked = _checking_kernel(monkeypatch)
    for path in files:
        g, _ = parse_graph_text(path.read_text())
        splitoff_pipeline(g, g.n - 1, seed=0)
    assert checked[0] == 167, checked


def test_every_flow_of_tree_plus_2n_matches_reference(monkeypatch):
    graphs = [tree_plus_2n(n, 31337 + n, n // 3) for n in (48, 400)]
    taus = [steiner_connectivity(g) for g in graphs]
    checked = _checking_kernel(monkeypatch)
    for g, conn in zip(graphs, taus):
        for bump in (1, 3):
            augment_pipeline(g, conn + bump, seed=g.n)
    assert checked[0] > 300, checked


def test_every_flow_of_few_terminal_graphs_matches_references(monkeypatch):
    """The regime of the gain: 400 vertices, 6 terminals, so most solves
    cross a large graph from one terminal to a few."""
    graphs = [tree_plus_2n(400, seed, 6) for seed in (1, 2, 3)]
    taus = [steiner_connectivity(g) + 3 for g in graphs]
    checked = _checking_kernel(monkeypatch)
    for seed, (g, tau) in enumerate(zip(graphs, taus), 1):
        augment_pipeline(g, tau, seed=seed)
    assert checked[0] > 15, checked


def test_no_path_once_the_backward_search_runs_out_keeps_the_source_side():
    """A sink of degree 1 behind a large source side: after the first
    push its one arc is saturated, so the backward search of the next
    phase ends at once and the forward search must still label the
    whole source side."""
    n = 60
    rng = random.Random(60)
    t = n - 1
    edges = [(rng.randrange(v), v, 3) for v in range(1, t)]
    edges += [tuple(rng.sample(range(t), 2)) + (3,) for _ in range(2 * n)]
    edges.append((rng.randrange(t), t, 1))
    net = flow.FlowNetwork(n, edges, False)
    cap = net.cap[:]
    value, side = _assert_same_as_references(net.head, net.to, cap, [0], [t])
    assert (value, side) == (1, frozenset(range(t)))


# ---- the mechanism ----------------------------------------------------------

class _CountingList(list):
    reads = 0

    def __getitem__(self, i):
        _CountingList.reads += 1
        return super().__getitem__(i)


def test_phase_never_enters_the_dead_ends_beside_the_sink():
    """A source whose neighbours are many non-sinks, joined in a chain,
    and, last, the sink: all on the sink's level.  The reference walks
    into each non-sink and scans its arcs; the kernel reads fewer
    capacities for the same result."""
    k = 40
    s, t = 0, 1
    edges = [(s, v, 1) for v in range(2, k + 2)]
    edges += [(v, v + 1, 1) for v in range(2, k + 1)]
    edges.append((s, t, 1))
    net = flow.FlowNetwork(k + 2, edges, False)
    results, reads = [], []
    for kernel in (_dinic.max_flow_kernel, reference_kernel):
        cap = _CountingList(net.cap)
        _CountingList.reads = 0
        value, side = kernel(net.head, net.to, cap, [s], [t])
        reads.append(_CountingList.reads)
        results.append((value, side, list(cap)))
    assert results[0] == results[1]
    assert results[0][0] == 1
    assert reads[0] < reads[1], reads


def test_phase_never_enters_the_pendant_chains_beyond_the_meeting_point():
    """A path from s to t whose inner vertices each carry a pendant chain,
    listed before the path's arcs: the chains reach the later levels but
    never t.  The first-sink kernel labels them and walks into each one
    before it takes the path; the kernel labels from both ends and, past
    the meeting point, takes only arcs toward t, so it reads fewer
    capacities for the same value, side and residual."""
    length, chain = 10, 12
    s, t = 0, length
    edges, n = [], length + 1
    for p in range(1, length):
        edges.append((p, n, 1))
        edges += [(v, v + 1, 1) for v in range(n, n + chain - 1)]
        n += chain
    edges += [(p, p + 1, 1) for p in range(length)]
    net = flow.FlowNetwork(n, edges, False)
    results, reads = [], []
    for kernel in (_dinic.max_flow_kernel, *REFERENCES):
        cap = _CountingList(net.cap)
        _CountingList.reads = 0
        value, side = kernel(net.head, net.to, cap, [s], [t])
        reads.append(_CountingList.reads)
        results.append((value, side, list(cap)))
    assert results[0] == results[1] == results[2]
    assert results[0][0] == 1
    assert reads[0] < reads[2], reads
