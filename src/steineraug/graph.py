"""Weighted undirected multigraph with terminals, and cut primitives.

Vertices are dense integers 0..n-1.  Edges are a multiset of (u, v, w)
with positive integer weights; parallel edges are allowed and cut values
sum all parallel weights.  Graphs are immutable: every mutation API
returns a new value.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

# A check on outside input.  The perturbed weights (supreme.perturb:
# 2**m * w + 2**i over m coalesced edges) have m + log2(W) + 1 bits at
# total weight W; flows run on exact Python integers of any size.
WEIGHT_SUM_BOUND = 1 << 40


class WeightBoundError(ValueError):
    """Total edge weight above WEIGHT_SUM_BOUND."""


@dataclass(frozen=True)
class Graph:
    """Undirected weighted multigraph with a designated terminal set."""

    n: int
    edges: tuple[tuple[int, int, int], ...]
    terminals: frozenset[int]

    def __post_init__(self) -> None:
        if self.n <= 0:
            raise ValueError("vertex count must be positive")
        total = 0
        for (u, v, w) in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge endpoint out of range: {(u, v, w)}")
            if u == v:
                raise ValueError(f"self-loop not allowed: {(u, v, w)}")
            if w <= 0 or not isinstance(w, int):
                raise ValueError(f"edge weight must be a positive integer: {(u, v, w)}")
            total += w
        if total > WEIGHT_SUM_BOUND:
            raise WeightBoundError(
                "total edge weight exceeds the perturbation-safe bound")
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
        return sum(w for (a, b, w) in self.entries if u in (a, b))

    def combine(self, other: "EdgeAdditions") -> "EdgeAdditions":
        return EdgeAdditions(self.entries + other.entries).merged()


def cut_value(g: Graph, X: Iterable[int],
              weights: Optional[dict[tuple[int, int], int]] = None) -> int:
    """d(X): total weight of edges with exactly one endpoint in X.

    When `weights` is given it overrides the graph's own edge weights
    (used for perturbed weight functions); keys are edge indices' sorted
    endpoint pairs as produced by Graph.coalesced().
    """
    side = set(X)
    for u in side:
        if not (0 <= u < g.n):
            raise ValueError(f"vertex id out of range: {u}")
    if weights is None:
        return sum(w for (u, v, w) in g.edges if (u in side) != (v in side))
    return sum(w for (u, v), w in weights.items() if (u in side) != (v in side))


def projection(g: Graph, X: Iterable[int]) -> frozenset[int]:
    """rho(X) = X intersect T."""
    return frozenset(X) & g.terminals


def is_steiner_cut(g: Graph, X: Iterable[int]) -> bool:
    """True iff X separates some but not all terminals."""
    p = projection(g, X)
    return bool(p) and p != g.terminals


def add_edges(g: Graph, F: EdgeAdditions) -> Graph:
    """Multiset union of g's edges with the additions."""
    for (u, v, _) in F.entries:
        if not (0 <= u < g.n and 0 <= v < g.n):
            raise ValueError(f"addition endpoint out of range: {(u, v)}")
    return Graph(g.n, g.edges + F.entries, g.terminals)


def steiner_connectivity(g: Graph, stop_below: int = 1) -> int:
    """Minimum cut value over all Steiner cuts, or the first lambda found
    below `stop_below`, so `steiner_connectivity(g, tau) < tau` decides
    `steiner_connectivity(g) < tau` with no flow past the first witness.

    Every Steiner cut separates a fixed terminal s from some other
    terminal, so the minimum equals min over t in T-{s} of lambda(s, t).
    Each flow after the first stops at the running minimum, which a
    lambda(s, t) that reaches it cannot lower.  Returns 0 when terminals
    span multiple components.
    """
    from . import flow  # local import to avoid a cycle

    ts = sorted(g.terminals)
    if len(ts) < 2:
        raise ValueError("Steiner connectivity needs at least 2 terminals")
    net = flow.FlowNetwork.undirected(g)
    best = flow.max_flow(net, ts[:1], ts[1:2]).value
    for t in ts[2:]:
        if best < stop_below:
            break
        best = min(best, flow.max_flow(net, ts[:1], (t,), best).value)
    return best


def star_graph(g: Graph, beta: dict[int, int]) -> tuple[Graph, int]:
    """g plus an external vertex x joined to each u with weight beta(u).

    Returns the extended graph (x is vertex g.n, not a terminal) and x's id.
    """
    x = g.n
    edges = list(g.edges)
    for u in sorted(beta):
        w = beta[u]
        if w > 0:
            edges.append((u, x, w))
    return Graph(g.n + 1, tuple(edges), g.terminals), x
