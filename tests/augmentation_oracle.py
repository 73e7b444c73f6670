"""Reference values the tests check the pipelines against: the exact
augmentation optimum, by the external optimum and, on tiny graphs, by
exhaustive search, and Frank's greedy external augmentation baseline.
Exponential time, like `steineraug.oracle`, on which they build.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from steineraug.graph import (EdgeAdditions, Graph, add_edges, star_graph,
                              steiner_connectivity)
from steineraug.oracle import DEFAULT_LIMIT, optimal_external_value


def optimal_augmentation_value(g: Graph, tau: int, limit: int = DEFAULT_LIMIT,
                               exhaustive: bool = False) -> int:
    """Optimal total weight of an augmentation to connectivity tau.

    Equals ceil(k/2) for the external optimum k; splitting-off feasibility
    makes the lower bound tight.  With exhaustive=True (n <= 6) the value
    is cross-checked by searching all small edge additions.
    """
    if tau < 2:
        raise ValueError("augmentation optimum defined for tau >= 2")
    k = optimal_external_value(g, tau, limit)
    val = (k + 1) // 2
    if exhaustive:
        if g.n > 6:
            raise ValueError("exhaustive cross-check limited to n <= 6")
        found = _min_addition_weight(g, tau, val)
        if found != val:
            raise AssertionError(
                f"exhaustive optimum {found} != ceil(k/2) = {val}")
    return val


def _min_addition_weight(g: Graph, tau: int, upper: int) -> Optional[int]:
    """Smallest total weight of an edge multiset raising connectivity to
    tau, searched over all candidate weighted edge sets up to `upper`."""
    pairs = list(combinations(range(g.n), 2))

    def feasible_with(entries: tuple[tuple[int, int, int], ...]) -> bool:
        h = add_edges(g, EdgeAdditions(entries))
        return steiner_connectivity(h) >= tau

    if steiner_connectivity(g) >= tau:
        return 0
    for total in range(1, upper + 1):
        # Enumerate weight compositions over the pair list.
        def rec(idx: int, remaining: int,
                acc: list[tuple[int, int, int]]) -> bool:
            if remaining == 0:
                return feasible_with(tuple(acc))
            if idx == len(pairs):
                return False
            for w in range(remaining + 1):
                if w:
                    acc.append((pairs[idx][0], pairs[idx][1], w))
                if rec(idx + 1, remaining - w, acc):
                    return True
                if w:
                    acc.pop()
            return False

        if rec(0, total, []):
            return total
    return None


def frank_greedy_external(g: Graph, tau: int) -> dict[int, int]:
    """Frank's greedy external augmentation baseline.

    Saturate every vertex with tau external edges, then process vertices
    in ascending id order; for each, drop all its external edges and add
    back only the maximum violation Delta it causes.  Feasible, and at
    most twice the augmentation optimum.
    """
    if tau < 2:
        raise ValueError("greedy baseline defined for tau >= 2")
    beta = {u: tau for u in range(g.n)}
    if steiner_connectivity(g) >= tau:
        return {}
    for v in range(g.n):
        w = beta[v]
        if w == 0:
            continue
        beta[v] = 0
        trial, _ = star_graph(g, beta)
        conn = steiner_connectivity(trial)
        delta = max(0, tau - conn)
        assert delta <= w
        beta[v] = delta
    return {u: w for u, w in beta.items() if w > 0}
