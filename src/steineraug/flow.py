"""Maximum-flow engine and derived cut primitives.

A `FlowNetwork` is prepared once per graph and weight map: its residual
arrays are built and checked once, and `max_flow(net, sources, sinks)`,
the one entry point, solves it for any number of source and sink sets,
copying only the residual capacities.  An undirected network has one
residual arc pair per coalesced edge, with capacity w each way; a
directed one has one pair per arc, reverse capacity 0.  Both run the
one pure-Python blocking-flow (Dinic) loop in `_dinic`, on unbounded
Python integers, so perturbed weights of any size are exact.  A solve
returns its value and minimal source side; the minimal sink side and
the per-arc flows are derived from the residual capacities when read.
A caller that only compares the value with a bound passes it as
`limit`: the solve stops once its flow reaches it, and
`FlowResult.finish` can go on from there if the exact value is needed
after all.

A global, atomic invocation counter supports the acceptance call-count
budget.
"""

from __future__ import annotations

import functools
import operator
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Optional

from . import _dinic
from .graph import Graph

#: Read by perfbench/layers.py, which traces a compiled kernel if one is set.
_dinic_cy = None

_counter_lock = threading.Lock()
_call_count = 0


def max_flow_call_count() -> int:
    return _call_count


def flow_backend_name() -> str:
    """The kernel's name; perfbench/run.py records it in every run."""
    return "python"


class FlowNetwork:
    """A network prepared for many `max_flow` solves.

    `arcs` lists (u, v, capacity); capacity None means infinite.  The
    residual graph gives arc i the pair 2i (u -> v) and 2i + 1 (v -> u),
    with reverse capacity 0 if `directed`, else the same capacity.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, Optional[int]]],
                 directed: bool = True) -> None:
        self.n = n
        self.arcs = tuple(arcs)
        self.inf = 1 + sum(c for (_, _, c) in self.arcs if c is not None)
        self.head: list[list[int]] = [[] for _ in range(n)]
        self.to: list[int] = []
        self.cap: list[int] = []
        for i, (u, v, c) in enumerate(self.arcs):
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc endpoint out of range: {(u, v)}")
            if c is not None and c < 0:
                raise ValueError(f"negative capacity: {(u, v, c)}")
            c = self.inf if c is None else c
            self.head[u].append(2 * i)
            self.head[v].append(2 * i + 1)
            self.to += (v, u)
            self.cap += (c, 0 if directed else c)

    @classmethod
    def undirected(cls, g: Graph,
                   weights: Optional[Mapping[tuple[int, int], int]] = None
                   ) -> "FlowNetwork":
        """g's coalesced edges, or the edges of `weights` if given."""
        coal = g.coalesced() if weights is None else weights
        return cls(g.n, [(u, v, w) for (u, v), w in coal.items()], False)


@dataclass(frozen=True)
class FlowResult:
    """A solve's value and minimal source side; a solve stopped at its
    limit has a value >= limit and no source side (None), and its sides
    and flows are not those of a min cut."""
    value: int
    source_side: Optional[frozenset[int]]  # minimal: residually reached
    net: FlowNetwork = field(repr=False)
    residual: list[int] = field(repr=False)   # capacities after the solve
    sources: tuple[int, ...] = field(repr=False)
    sinks: tuple[int, ...] = field(repr=False)

    @functools.cached_property
    def sink_side(self) -> frozenset[int]:
        """Minimal sink side: the vertices residually reaching a sink.
        Found on first read, since only the base case reads it."""
        head, to, res = self.net.head, self.net.to, self.residual
        side = set(self.sinks)
        queue = deque(self.sinks)
        while queue:
            v = queue.popleft()
            for a in head[v]:
                u = to[a]
                if res[a ^ 1] and u not in side:
                    side.add(u)
                    queue.append(u)
        return frozenset(side)

    @functools.cached_property
    def flows(self) -> tuple[int, ...]:
        """Per arc, u -> v (< 0: v -> u, undirected); built on first read,
        since only the H networks of `deg_external` read it."""
        return tuple(map(operator.sub, self.net.cap[::2], self.residual[::2]))

    def finish(self, limit: Optional[int] = None) -> "FlowResult":
        """Go on with a solve stopped at its limit, from its residual
        (taken over, not copied), up to the new `limit`: returns the
        exact solve, or again a stopped one."""
        net = self.net
        more, side = _kernel_for(net.inf)(
            net.head, net.to, self.residual, self.sources, self.sinks,
            None if limit is None else limit - self.value)
        if self.value + more >= net.inf:
            raise NoFiniteCutError("no finite cut separates sources from sinks")
        return FlowResult(self.value + more, side, net, self.residual,
                          self.sources, self.sinks)


class NoFiniteCutError(ValueError):
    """Raised when an infinite-capacity path joins sources to sinks."""


def _kernel_for(total_cap: int):
    # A module-level seam: perfbench/layers.py wraps it to trace the kernel.
    return _dinic.max_flow_kernel


def max_flow(net: FlowNetwork, sources: Iterable[int],
             sinks: Iterable[int], limit: Optional[int] = None) -> FlowResult:
    """Integral maximum flow; value equals the min cut value, and the two
    sides are the minimal source and sink sides over all min cuts.  With
    `limit`, a solve whose max flow is >= limit stops once its flow
    reaches it, with a value >= limit and no source side; any other solve
    is the same as without it."""
    global _call_count
    with _counter_lock:
        _call_count += 1
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if not sources or not sinks or set(sources).intersection(sinks):
        raise ValueError("sources and sinks must be nonempty and disjoint")
    if sources[0] < 0 or sinks[0] < 0 or max(sources[-1], sinks[-1]) >= net.n:
        raise ValueError("source or sink out of range")
    return FlowResult(0, None, net, net.cap[:], tuple(sources),
                      tuple(sinks)).finish(limit)


def min_cut_value(g: Graph, A: Iterable[int], B: Iterable[int],
                  weights: Optional[Mapping[tuple[int, int], int]] = None) -> int:
    return max_flow(FlowNetwork.undirected(g, weights), A, B).value


def earliest_min_cut(g: Graph, A: Iterable[int], B: Iterable[int],
                     weights: Optional[Mapping[tuple[int, int], int]] = None
                     ) -> frozenset[int]:
    """A-side-minimal A-B min cut: the residual-reachable set."""
    return max_flow(FlowNetwork.undirected(g, weights), A, B).source_side


def isolating_cuts(g: Graph, parts: list[frozenset[int]]
                   ) -> dict[frozenset[int], frozenset[int]]:
    """Minimal min cut isolating each part from the union of the others,
    all on one network."""
    if len(parts) < 2:
        raise ValueError("need at least 2 parts")
    all_v: set[int] = set()
    for p in parts:
        if all_v & p:
            raise ValueError("parts must be disjoint")
        all_v |= p
    net = FlowNetwork.undirected(g)
    return {p: max_flow(net, p, all_v - p).source_side for p in parts}
