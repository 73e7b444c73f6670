"""Weighted undirected multigraph with terminals, and cut primitives.

Vertices are dense integers 0..n-1.  Edges are a multiset of (u, v, w)
with positive integer weights; parallel edges are allowed and cut values
sum all parallel weights.  Graphs are immutable: every mutation API
returns a new value.

A graph built from outside input (`Graph.build`, the CLI) checks every
edge once.  A graph the package derives from a checked one
(`add_edges`, `star_graph`) checks only the edges it adds, and the
total weight from its base's, so the pipelines' internal graphs are
not validated again; splitting-off's G - x, a checked graph minus its
last vertex, checks nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

if TYPE_CHECKING:
    from .flow import FlowResult

# A check on outside input.  The perturbed capacities (supreme.perturb:
# 2**m * w + 2**i over m coalesced edges) have m + log2(W) + 1 bits at
# total weight W, and that network's inf, (W + 1) * 2**m, is made from
# the total these checks find; flows run on exact Python integers of
# any size.
WEIGHT_SUM_BOUND = 1 << 40


class WeightBoundError(ValueError):
    """Total edge weight above WEIGHT_SUM_BOUND."""


def _checked_weight(n: int, edges: Iterable[tuple[int, int, int]],
                    total: int) -> int:
    """`total` plus the edges' weights, each edge checked: endpoints in
    0..n-1, no self-loop, a positive integer weight; the sum must stay
    within WEIGHT_SUM_BOUND."""
    for (u, v, w) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge endpoint out of range: {(u, v, w)}")
        if u == v:
            raise ValueError(f"self-loop not allowed: {(u, v, w)}")
        if w <= 0 or not isinstance(w, int):
            raise ValueError(
                f"edge weight must be a positive integer: {(u, v, w)}")
        total += w
    if total > WEIGHT_SUM_BOUND:
        raise WeightBoundError(
            "total edge weight exceeds the perturbation-safe bound")
    return total


@dataclass(frozen=True)
class Graph:
    """Undirected weighted multigraph with a designated terminal set."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    terminals: frozenset[int]
    #: The sum of the edge weights, found by the checks.
    total_weight: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("vertex count must be positive")
        object.__setattr__(self, "total_weight",
                           _checked_weight(self.n, self.edges, 0))
        if not self.terminals:
            raise ValueError("terminal set must be nonempty")
        for t in self.terminals:
            if not (0 <= t < self.n):
                raise ValueError(f"terminal id out of range: {t}")

    @staticmethod
    def build(n: int, edges: Iterable[tuple[int, int, int]],
              terminals: Iterable[int]) -> "Graph":
        return Graph(n, tuple((int(u), int(v), int(w)) for u, v, w in edges),
                     frozenset(int(t) for t in terminals))

    def _derived(self, n: int, edges: tuple[tuple[int, int, int], ...],
                 total: int) -> "Graph":
        """A graph on n vertices with this graph's terminals, the `edges`
        given and their total weight `total`, none of it checked: the
        caller derived them from this checked graph."""
        g = object.__new__(Graph)
        g.__dict__.update(n=n, edges=edges, terminals=self.terminals,
                          total_weight=total)
        return g

    def _extend(self, n: int, added: tuple[tuple[int, int, int], ...]
                ) -> "Graph":
        """This graph on n >= self.n vertices plus the edges `added`, of
        which only the new ones are checked."""
        return self._derived(n, self.edges + added,
                             _checked_weight(n, added, self.total_weight))

    def degree(self, u: int) -> int:
        """Weighted degree of u."""
        return sum(w for (a, b, w) in self.edges if u in (a, b))

    def coalesced(self) -> dict[tuple[int, int], int]:
        """Parallel-edge weights summed, keyed by sorted endpoint pair."""
        acc: dict[tuple[int, int], int] = {}
        for (u, v, w) in self.edges:
            key = (u, v) if u < v else (v, u)
            acc[key] = acc.get(key, 0) + w
        return acc


@dataclass(frozen=True)
class EdgeAdditions:
    """Multiset of weighted vertex-pair edges: an augmentation output F."""

    entries: tuple[tuple[int, int, int], ...] = ()

    def __post_init__(self) -> None:
        for (u, v, w) in self.entries:
            if u == v:
                raise ValueError(f"self-loop in additions: {(u, v, w)}")
            if w <= 0:
                raise ValueError(f"non-positive addition weight: {(u, v, w)}")

    @property
    def total_weight(self) -> int:
        return sum(w for (_, _, w) in self.entries)

    def merged(self) -> "EdgeAdditions":
        """Coalesce parallel entries into one weighted entry each."""
        acc: dict[tuple[int, int], int] = {}
        for (u, v, w) in self.entries:
            key = (u, v) if u < v else (v, u)
            acc[key] = acc.get(key, 0) + w
        return EdgeAdditions(tuple((u, v, w) for (u, v), w in sorted(acc.items())))

    def degree(self, u: int) -> int:
        return self.degrees()[u]

    def degrees(self) -> Counter:
        """Every vertex's weighted degree, in one pass over the entries."""
        deg: Counter = Counter()
        for (u, v, w) in self.entries:
            deg[u] += w
            deg[v] += w
        return deg

    def combine(self, other: "EdgeAdditions") -> "EdgeAdditions":
        return EdgeAdditions(self.entries + other.entries).merged()


def cut_value(g: Graph, X: Iterable[int]) -> int:
    """d(X): total weight of edges with exactly one endpoint in X."""
    side = set(X)
    for u in side:
        if not (0 <= u < g.n):
            raise ValueError(f"vertex id out of range: {u}")
    return sum(w for (u, v, w) in g.edges if (u in side) != (v in side))


def projection(g: Graph, X: Iterable[int]) -> frozenset[int]:
    """rho(X) = X intersect T."""
    return frozenset(X) & g.terminals


def is_steiner_cut(g: Graph, X: Iterable[int]) -> bool:
    """True iff X separates some but not all terminals."""
    p = projection(g, X)
    return bool(p) and p != g.terminals


def add_edges(g: Graph, F: EdgeAdditions) -> Graph:
    """Multiset union of g's edges with the additions; only the additions
    are checked (module docstring)."""
    return g._extend(g.n, F.entries)


def least_steiner_cut(g: Graph, limit: Optional[int] = None,
                      groups: Optional[Sequence[Iterable[int]]] = None,
                      bound: Optional[int] = None) -> Optional[FlowResult]:
    """`flow.least_cut` over the flows from each terminal group i to the
    union of groups 0..i-1, in that order; the groups default to
    the sorted terminals, one each.  The first terminal on the far side
    of a Steiner min cut from t_0 sees every earlier one across it, so
    the least is a Steiner min cut (the growing sink of Hao and Orlin,
    J. Algorithms 1994).  Its sinks, and so every sink side of its min
    cuts, hold the first group.  None below 2 groups.

    With `limit`, or `bound`, the groups may be any partition of the
    terminals that no Steiner cut below it separates, such as the
    tau-classes of a subgraph of g at tau = `limit`: such a cut is then a
    union of groups, and the first group across it from group 0 sees
    every earlier one across it.  So with `limit` the value is below
    `limit` exactly when the minimum is, and with `bound` the result is a
    Steiner min cut when the minimum is below `bound`, else None (at once
    if `bound` <= 0)."""
    from . import flow  # local import to avoid a cycle

    if groups is None:
        groups = [(t,) for t in sorted(g.terminals)]
    if len(groups) < 2 or (bound is not None and bound <= 0):
        return None
    return flow.least_cut(flow.FlowNetwork.undirected(g),
                          ((grp, [t for K in groups[:i] for t in K])
                           for i, grp in enumerate(groups[1:], 1)),
                          limit, bound)


def steiner_connectivity(g: Graph, limit: Optional[int] = None,
                         groups: Optional[Sequence[Iterable[int]]] = None,
                         bound: Optional[int] = None) -> int:
    """Minimum cut value over all Steiner cuts (`least_steiner_cut`); 0
    when the terminals span several components.  With `limit` the value
    is below it exactly when the minimum is, each flow stopping at
    `limit` and none past the first terminal below it.  With `bound`, an
    upper bound known from elsewhere, the value is min(minimum, `bound`),
    each flow capped at the least value so far, the first at `bound`.
    `groups` as in `least_steiner_cut`: at least 2, unless `bound` is
    given, when a single group means no Steiner cut below `bound`.
    """
    if len(g.terminals) < 2:
        raise ValueError("Steiner connectivity needs at least 2 terminals")
    res = least_steiner_cut(g, limit, groups, bound)
    return bound if res is None else res.value


def star_graph(g: Graph, beta: dict[int, int]) -> tuple[Graph, int]:
    """g plus an external vertex x joined to each u with weight beta(u).

    Returns the extended graph (x is vertex g.n, not a terminal) and x's id.
    """
    x = g.n
    return g._extend(x + 1, tuple((u, x, beta[u]) for u in sorted(beta)
                                  if beta[u] > 0)), x
