"""Maximum-flow engine and derived cut primitives.

The solver is a blocking-flow (Dinic) kernel behind a narrow interface.
Two interchangeable kernels exist: a compiled Cython one on int64
capacities and a pure-Python one on unbounded integers.  The compiled
kernel is preferred when available and when capacities fit int64 safely;
perturbed-weight instances route to the Python kernel automatically.

A global, atomic invocation counter supports the acceptance call-count
budget.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional

from . import _dinic
from .graph import Graph

try:
    from . import _dinic_cy
except ImportError:  # pragma: no cover - build-environment dependent
    _dinic_cy = None

#: int64 safety margin for the compiled kernel: the sum of all capacities
#: (which bounds any flow value and the infinity sentinel) must stay below this.
_INT64_SAFE = 1 << 62

_counter_lock = threading.Lock()
_call_count = 0


def max_flow_call_count() -> int:
    return _call_count


def reset_max_flow_call_count() -> None:
    global _call_count
    with _counter_lock:
        _call_count = 0


def flow_backend_name() -> str:
    """Which kernel a small-capacity instance would use."""
    forced = os.environ.get("STEINERAUG_FLOW_BACKEND")
    if forced == "py" or _dinic_cy is None:
        return "python"
    return "compiled"


INF = None  # sentinel for infinite capacity in FlowNetwork arcs


@dataclass(frozen=True)
class FlowNetwork:
    """Directed network; arc capacity None means infinite."""

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


@dataclass(frozen=True)
class FlowResult:
    value: int
    flows: tuple[int, ...]          # per input arc, 0 <= f <= capacity
    source_side: frozenset[int]     # residual-reachable vertices


class NoFiniteCutError(ValueError):
    """Raised when an infinite-capacity path joins sources to sinks."""


def _kernel_for(total_cap: int):
    forced = os.environ.get("STEINERAUG_FLOW_BACKEND")
    if forced == "py":
        return _dinic.max_flow_kernel
    if forced == "c":
        if _dinic_cy is None:
            raise RuntimeError("compiled flow kernel not available")
        if total_cap >= _INT64_SAFE:
            raise RuntimeError("capacities exceed the compiled kernel's range")
        return _dinic_cy.max_flow_kernel
    if _dinic_cy is not None and total_cap < _INT64_SAFE:
        return _dinic_cy.max_flow_kernel
    return _dinic.max_flow_kernel


def max_flow(net: FlowNetwork) -> FlowResult:
    """Integral maximum flow; value equals the min cut value."""
    global _call_count
    with _counter_lock:
        _call_count += 1

    finite_sum = sum(c for (_, _, c) in net.arcs if c is not None)
    inf = finite_sum + 1
    n = net.n
    src = []
    dst = []
    cap = []
    for (u, v, c) in net.arcs:
        src.append(u)
        dst.append(v)
        cap.append(inf if c is None else c)
    m_net = len(src)
    # Super source/sink collapse multi-terminal instances to a single pair.
    s = n
    t = n + 1
    for u in sorted(net.sources):
        src.append(s)
        dst.append(u)
        cap.append(inf)
    for u in sorted(net.sinks):
        src.append(u)
        dst.append(t)
        cap.append(inf)

    kernel = _kernel_for(sum(cap))
    value, flows, reachable = kernel(n + 2, src, dst, cap, s, t)
    if value >= inf:
        raise NoFiniteCutError("no finite cut separates sources from sinks")
    side = frozenset(v for v in reachable if v < n)
    return FlowResult(value, tuple(flows[:m_net]), side)


def _graph_arcs(g: Graph,
                weights: Optional[Mapping[tuple[int, int], int]] = None
                ) -> list[tuple[int, int, int]]:
    """Antiparallel arc pair per undirected edge, each with full weight."""
    coal = g.coalesced() if weights is None else weights
    arcs = []
    for (u, v), w in sorted(coal.items()):
        arcs.append((u, v, w))
        arcs.append((v, u, w))
    return arcs


def _solve_undirected(g: Graph, A: Iterable[int], B: Iterable[int],
                      weights: Optional[Mapping[tuple[int, int], int]] = None
                      ) -> tuple[FlowResult, list[tuple[int, int, int]]]:
    A = frozenset(A)
    B = frozenset(B)
    if not A or not B or (A & B):
        raise ValueError("A and B must be nonempty and disjoint")
    arcs = _graph_arcs(g, weights)
    net = FlowNetwork(g.n, tuple(arcs), A, B)
    return max_flow(net), arcs


def min_cut_value(g: Graph, A: Iterable[int], B: Iterable[int],
                  weights: Optional[Mapping[tuple[int, int], int]] = None) -> int:
    res, _ = _solve_undirected(g, A, B, weights)
    return res.value


def earliest_min_cut(g: Graph, A: Iterable[int], B: Iterable[int],
                     weights: Optional[Mapping[tuple[int, int], int]] = None
                     ) -> frozenset[int]:
    """A-side-minimal A-B min cut: the residual-reachable set."""
    res, _ = _solve_undirected(g, A, B, weights)
    return res.source_side


def min_cut_sides(g: Graph, A: Iterable[int], B: Iterable[int],
                  weights: Optional[Mapping[tuple[int, int], int]] = None
                  ) -> tuple[frozenset[int], frozenset[int]]:
    """Minimal A side and minimal B side of the A-B min cuts from one flow:
    the residual-reachable set and the set residually reaching B, which is
    `earliest_min_cut(g, B, A)` whichever max flow the kernel returns."""
    B = frozenset(B)
    res, arcs = _solve_undirected(g, A, B, weights)
    # Walk residual arcs backwards from B.
    back: dict[int, list[int]] = {v: [] for v in range(g.n)}
    for i, (u, v, c) in enumerate(arcs):
        f = res.flows[i]
        if c - f > 0:          # residual forward arc u -> v
            back[v].append(u)
        if f > 0:              # residual reverse arc v -> u
            back[u].append(v)
    reach_sink = set(B)
    queue = deque(B)
    while queue:
        v = queue.popleft()
        for u in back[v]:
            if u not in reach_sink:
                reach_sink.add(u)
                queue.append(u)
    return res.source_side, frozenset(reach_sink)


def latest_min_cut(g: Graph, A: Iterable[int], B: Iterable[int],
                   weights: Optional[Mapping[tuple[int, int], int]] = None
                   ) -> frozenset[int]:
    """A-side-maximal A-B min cut: complement of the sink-reaching set."""
    return frozenset(range(g.n)) - min_cut_sides(g, A, B, weights)[1]


def cut_threshold(g: Graph, s: int, phi: int,
                  weights: Optional[Mapping[tuple[int, int], int]] = None,
                  candidates: Optional[Iterable[int]] = None) -> frozenset[int]:
    """ct(s, phi) = {s} union {t : lambda(s, t) >= phi}.

    Implemented naively with one max flow per candidate vertex; the
    sub-quadratic threshold algorithm is out of scope.  `candidates`
    restricts the vertices tested (callers that only need terminals).
    """
    if candidates is None:
        candidates = range(g.n)
    out = {s}
    if phi <= 0:
        return frozenset(candidates) | out
    for t in candidates:
        if t == s:
            continue
        if min_cut_value(g, {s}, {t}, weights) >= phi:
            out.add(t)
    return frozenset(out)


def isolating_cuts(g: Graph, parts: list[frozenset[int]]
                   ) -> dict[frozenset[int], frozenset[int]]:
    """Minimal min cut isolating each part from the union of the others."""
    if len(parts) < 2:
        raise ValueError("need at least 2 parts")
    all_v: set[int] = set()
    for p in parts:
        if all_v & p:
            raise ValueError("parts must be disjoint")
        all_v |= p
    out = {}
    for p in parts:
        rest = all_v - p
        out[p] = earliest_min_cut(g, p, rest)
    return out
