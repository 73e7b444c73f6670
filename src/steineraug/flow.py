"""Maximum-flow engine and derived cut primitives.

A `FlowNetwork` is prepared once per graph and weight map: its residual
arrays are built and checked once, and `max_flow(net, sources, sinks)`,
the one entry point, solves it for any number of source and sink sets,
copying only the residual capacities.  An undirected network has one
residual arc pair per coalesced edge, with capacity w each way.  A
graph's network is laid out in one pass over its edges
(`coalesced_layout`), which `FlowNetwork.undirected` gives the plain
weights and `supreme.perturb` the perturbed ones, so both number g's
arcs alike.
The supreme recursion lays out each contracted node's network in the
pass that coalesces its parent's arcs (`supreme._contract`).  These
layouts go to `FlowNetwork.laid_out`, which checks nothing.  A network
built from its arc list checks every arc; a directed one has one pair
per arc, reverse capacity 0.  All run the one pure-Python blocking-flow
(Dinic) loop in `_dinic`, on unbounded Python integers, so perturbed
weights of any size are exact.  A solve returns its value, its minimal
source side and its residual capacities, from which a caller reads a
per-arc flow; the minimal sink side of an undirected network is the
minimal source side of the solve from the sinks to the sources.  A
caller that only compares the value with a bound passes it as `limit`:
the solve stops once its flow reaches it, and then tells only that the
max flow is at least `limit`.  `least_cut`, the least of the solves of
many (sources, sinks) pairs, answers every Steiner-connectivity
question, exactly below a `bound` known from elsewhere when one is
given.

A per-thread invocation counter supports the call-count budget and the
pipelines' reports.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass, field
from typing import Iterable, Optional

from . import _dinic
from .graph import Graph

#: Read by perfbench/layers.py, which traces a compiled kernel if one is set.
_dinic_cy = None

_counts = threading.local()


def max_flow_call_count() -> int:
    return getattr(_counts, "n", 0)  # the calling thread's solves


def flow_backend_name() -> str:
    """The kernel's name; perfbench/run.py records it in every run."""
    return "python"


def coalesced_layout(g: Graph) -> tuple[list[list[int]], list[int],
                                        list[int], dict[int, int]]:
    """g's undirected network but its capacities: the adjacency lists, the
    arc heads, the sorted edge keys and each key's summed weight.

    The edges are coalesced on the integer key u*n + v (u < v), whose
    order is the order of the pairs (u, v), and arc pair i runs u -> v
    for the i-th key.  The pairs (u, x) sort before the pairs (x, v), so
    x's adjacency list takes its reverse arcs first and then its forward
    ones, each in arc order; arc pair i has capacity caps[i] each way
    for the caller's `caps` in key order (`FlowNetwork.laid_out`).  g's
    own checks stand for the network's."""
    n = g.n
    acc: dict[int, int] = {}
    for (u, v, w) in g.edges:
        key = u * n + v if u < v else v * n + u
        acc[key] = acc[key] + w if key in acc else w
    keys = sorted(acc)
    m = len(keys)
    us = [key // n for key in keys]
    vs = [key % n for key in keys]
    head: list[list[int]] = [[] for _ in range(n)]
    for a, v in zip(range(1, 2 * m, 2), vs):
        head[v].append(a)
    for a, u in zip(range(0, 2 * m, 2), us):
        head[u].append(a)
    to = [0] * (2 * m)
    to[::2], to[1::2] = vs, us
    return head, to, keys, acc


class FlowNetwork:
    """A network prepared for many `max_flow` solves.

    `arcs` lists (u, v, capacity); capacity None means infinite.  The
    residual graph gives arc i the pair 2i (u -> v) and 2i + 1 (v -> u),
    with reverse capacity 0 if `directed`, else the same capacity.
    """

    def __init__(self, n: int, arcs: Iterable[tuple[int, int, Optional[int]]],
                 directed: bool = True) -> None:
        self.n = n
        self.arcs = arcs = tuple(arcs)
        self.head: list[list[int]] = [[] for _ in range(n)]
        head, inf = self.head, 1
        a = 0
        for (u, v, c) in arcs:
            if not (0 <= u < n and 0 <= v < n):
                raise ValueError(f"arc endpoint out of range: {(u, v)}")
            if c is not None:
                if c < 0:
                    raise ValueError(f"negative capacity: {(u, v, c)}")
                inf += c
            head[u].append(a)
            head[v].append(a + 1)
            a += 2
        self.inf = inf
        self.to: list[int] = [0] * a
        self.to[::2] = [v for (_, v, _) in arcs]
        self.to[1::2] = [u for (u, _, _) in arcs]
        self.cap: list[int] = [0] * a
        self.cap[::2] = [inf if c is None else c for (_, _, c) in arcs]
        if not directed:
            self.cap[1::2] = self.cap[::2]

    @classmethod
    def undirected(cls, g: Graph) -> "FlowNetwork":
        """g's coalesced edges, each of its summed weight, laid out by
        `coalesced_layout`."""
        head, to, keys, acc = coalesced_layout(g)
        return cls.laid_out(g.n, head, to, [acc[key] for key in keys],
                            g.total_weight + 1)

    @classmethod
    def laid_out(cls, n: int, head: list[list[int]], to: list[int],
                 caps: list[int], inf: int) -> "FlowNetwork":
        """The undirected network whose arc pair i has capacity caps[i]
        each way, given its adjacency lists `head` and arc heads `to`,
        checking nothing; `inf` must exceed the sum of `caps`."""
        net = cls.__new__(cls)
        net.n, net.head, net.to, net.inf = n, head, to, inf
        net.cap = cap = caps * 2
        cap[::2] = cap[1::2] = caps
        return net

    @functools.cached_property
    def arcs(self) -> tuple[tuple[int, int, Optional[int]], ...]:
        # Only for networks laid out with no arc list (`laid_out`);
        # nothing on the solve path reads it.
        to, cap = self.to, self.cap
        return tuple(zip(to[1::2], to[::2], cap[::2]))


@dataclass(frozen=True)
class FlowResult:
    """A solve's value, minimal source side and residual capacities: arc
    pair i carries net.cap[2i] - residual[2i] from its tail to its head
    (< 0: the other way, undirected).  A solve stopped at its limit (or
    not begun, at a limit <= 0) has a value >= limit and no source side
    (None), and its residual is not that of a max flow."""
    value: int
    source_side: Optional[frozenset[int]]  # minimal: residually reached
    residual: list[int] = field(repr=False)   # capacities after the solve


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
    is the same as without it.  At a limit <= 0 the solve does not begin:
    its value is 0 and the kernel does not run."""
    _counts.n = max_flow_call_count() + 1
    sources = sorted(set(sources))
    sinks = sorted(set(sinks))
    if not sources or not sinks or set(sources).intersection(sinks):
        raise ValueError("sources and sinks must be nonempty and disjoint")
    if sources[0] < 0 or sinks[0] < 0 or max(sources[-1], sinks[-1]) >= net.n:
        raise ValueError("source or sink out of range")
    if limit is not None and limit <= 0:
        return FlowResult(0, None, net.cap[:])
    residual = net.cap[:]
    value, side = _kernel_for(net.inf)(net.head, net.to, residual, sources,
                                       sinks, limit)
    if value >= net.inf:
        raise NoFiniteCutError("no finite cut separates sources from sinks")
    return FlowResult(value, side, residual)


def least_cut(net: FlowNetwork,
              pairs: Iterable[tuple[Iterable[int], Iterable[int]]],
              limit: Optional[int] = None, bound: Optional[int] = None
              ) -> Optional[FlowResult]:
    """The first least of the solves of `net` from each pair's sources to
    its sinks (None if none).  Each is capped at `limit`, or without one
    at the least of `bound` and the values so far (the first uncapped if
    there is no `bound` either), so a value below its cap is exact, with
    its minimal source side.  Stops, solving no more pairs, at the first
    value below `limit`, or at the first 0 without one.  So with `limit`
    the result is exact when it is below `limit`; without one it is the
    exact first least, or with `bound` None when no value is below
    `bound`: `limit` stops at the first value below it, `bound` only caps
    the solves."""
    stop = 1 if limit is None else limit
    best, cap = None, bound
    for sources, sinks in pairs:
        res = max_flow(net, sources, sinks, cap if limit is None else limit)
        if best is None or res.value < best.value:
            best = res
        if res.value < stop:
            break
        if cap is None or res.value < cap:
            cap = res.value
    if bound is not None and best is not None and best.value >= bound:
        return None
    return best


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
