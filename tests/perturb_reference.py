"""The supreme recursion's weight maps, kept as they were: `perturb`
returned g's perturbed weights as a map from each sorted coalesced
edge (u, v) to w~, and `_contract` coalesced a node's map into its
contracted node's, in first-seen order, with the list of each vertex's
original vertex set as its labels.  Each node's network was then
laid out from its map, one arc pair per item in key order.  The
recursion now lays out each network in the pass that makes its
weights; `tests/test_perturb_layout.py` checks that every network is
the one laid out from these maps, arc for arc.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from steineraug.graph import Graph


def _expand(X: Iterable[int], labels: list[frozenset[int]]) -> frozenset[int]:
    """The original vertices of X, `labels` being each vertex's set."""
    return frozenset().union(*(labels[v] for v in X))


def perturb(g: Graph) -> dict[tuple[int, int], int]:
    """Coalesced edge -> w~(e) = 2^m*w(e) + 2^i, e the i-th of the m sorted
    coalesced edges.

    A cut's offset, the sum of 2^i over the edges it crosses, names its
    crossing-edge set, so min cuts are unique; it lies in [0, 2^m - 1], so
    d(X) = d~(X) >> m and unequal cut values keep their order.

    The edges are coalesced on the integer key u*n + v (u < v), whose
    order is the order of the pairs (u, v), and 2^m*w is made once per
    distinct weight w."""
    n = g.n
    acc: dict[int, int] = {}
    for (u, v, w) in g.edges:
        key = u * n + v if u < v else v * n + u
        acc[key] = acc[key] + w if key in acc else w
    m = len(acc)
    high = {w: w << m for w in set(acc.values())}
    return {divmod(key, n): high[acc[key]] + (1 << i)
            for i, key in enumerate(sorted(acc))}


def _contract(parts: list[Iterable[int]], terminals: frozenset[int],
              weights: Mapping[tuple[int, int], int],
              labels: list[frozenset[int]]
              ) -> tuple[dict[int, int], frozenset[int],
                         dict[tuple[int, int], int], list[frozenset[int]]]:
    """Merge each of the disjoint vertex sets `parts` of a recursion node
    into one vertex; the other vertices keep their order, and the merged
    ones follow in the order of `parts`.  Returns the vertex map and the
    contracted node's terminals, weights (an edge inside a part would be a
    self-loop and is dropped, and parallel edges are summed) and
    labels."""
    merged = frozenset().union(*parts)
    keep = [u for u in range(len(labels)) if u not in merged]
    phi = {u: i for i, u in enumerate(keep)}
    for i, K in enumerate(parts, len(keep)):
        phi.update(dict.fromkeys(K, i))
    out: dict[tuple[int, int], int] = {}
    for (u, v), w in weights.items():
        a, b = phi[u], phi[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        # w itself, not 0 + w, which would copy a large perturbed weight.
        out[key] = out[key] + w if key in out else w
    return (phi, frozenset(phi[t] for t in terminals), out,
            [labels[u] for u in keep] + [_expand(K, labels) for K in parts])

