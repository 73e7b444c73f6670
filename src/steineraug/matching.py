"""Final +1 step: raise Steiner connectivity from tau-1 to tau by
randomly matching the demand-1 terminal groups.

Each live root of demand exactly 1 contributes its terminal set as a
group; a uniformly sampled partial matching is accepted when the current
graph plus the matching plus a unit star into the unmatched groups still
has connectivity tau.  Acceptance probability is at least 1/3 per
attempt, so a logarithmic retry cap suffices.  Each check costs c - 1
flows over the c tau-classes of the graph the step starts from, which
every checked graph contains (`graph.least_steiner_cut`).

The sampling loop is shared with the degree-constrained variant, which
only differs in how a group turns into an edge endpoint: every edge of
either step comes out of it.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Optional, Sequence

from .forest import LaminarForest
from .graph import EdgeAdditions, Graph, add_edges, least_steiner_cut, star_graph


class MatchingRetryError(RuntimeError):
    """No feasible partial matching found within the retry budget."""


def build_K(forest: LaminarForest, tau: int) -> list[frozenset[int]]:
    """Terminal sets of the live roots with demand exactly 1."""
    groups = [forest.nodes[r].terminals for r in forest.roots()
              if tau - forest.nodes[r].c == 1]
    groups.sort(key=min)
    return groups


def designated_terminal(group: frozenset[int],
                        beta: Optional[dict[int, int]] = None) -> int:
    """Lowest-id terminal, preferring one with vacant degree if known."""
    if beta is not None:
        vac = [t for t in group if beta.get(t, 0) > 0]
        if vac:
            return min(vac)
    return min(group)


def is_feasible_partial(g_cur: Graph, K_remaining: Sequence[frozenset[int]],
                        M: Sequence[tuple[int, int]], tau: int,
                        classes: Optional[Sequence[Iterable[int]]] = None
                        ) -> bool:
    """Connectivity check for graph + matching + unit star into the
    still-unmatched groups (at their designated terminals), over the
    tau-classes `classes` of a subgraph of g_cur (default: singletons)."""
    h = add_edges(g_cur, EdgeAdditions(tuple((u, v, 1) for (u, v) in M)))
    beta: dict[int, int] = {}
    for grp in K_remaining:
        v = designated_terminal(grp)
        beta[v] = beta.get(v, 0) + 1
    res = least_steiner_cut(star_graph(h, beta)[0], tau, classes)
    return res is None or res.value >= tau


def match_groups(g: Graph, K: Sequence[frozenset[int]], tau: int,
                 rng: random.Random,
                 edge_vertex: Callable[[frozenset[int]], int],
                 on_commit: Optional[Callable[[frozenset[int], int], None]]
                 = None,
                 capacity: Optional[Callable[[frozenset[int]], int]]
                 = None,
                 classes: Optional[Sequence[Iterable[int]]] = None
                 ) -> EdgeAdditions:
    """Algorithm-3 sampling loop over arbitrary endpoint rules.

    edge_vertex maps a group to the vertex its matched edge attaches to
    (must be stable between the feasibility check and the commit);
    on_commit reports consumed endpoints (for budget bookkeeping).
    `classes`, g's tau-classes, go to every check (`is_feasible_partial`).
    """
    if not K:
        return EdgeAdditions(())
    groups = list(K)
    out: list[tuple[int, int]] = []     # committed pairs, checked with g

    def commit(pairs: list[tuple[frozenset[int], frozenset[int]]]) -> None:
        for (gu, gv) in pairs:
            u, v = edge_vertex(gu), edge_vertex(gv)
            out.append((u, v))
            if on_commit is not None:
                on_commit(gu, u)
                on_commit(gv, v)

    if len(groups) % 2 == 1:
        # One extra edge on an arbitrary pair; only one endpoint retires.
        # The pair is free to choose, so when endpoint budgets are in
        # play the kept group is the one that can afford a second edge.
        if capacity is None:
            i, j = rng.sample(range(len(groups)), 2)
        else:
            j = max(range(len(groups)),
                    key=lambda t: (capacity(groups[t]), -min(groups[t])))
            i = rng.choice([t for t in range(len(groups)) if t != j])
        commit([(groups[i], groups[j])])
        groups.pop(i)

    attempts = 128 * max(1, math.ceil(math.log2(max(2, g.n))))
    while len(groups) >= 4:
        p = len(groups) // 4
        for _ in range(attempts):
            order = list(range(len(groups)))
            rng.shuffle(order)
            picked = order[:2 * p]
            pairs = [(picked[2 * i], picked[2 * i + 1]) for i in range(p)]
            M = [(edge_vertex(groups[a]), edge_vertex(groups[b]))
                 for (a, b) in pairs]
            matched = set(picked)
            remaining = [grp for i, grp in enumerate(groups)
                         if i not in matched]
            if is_feasible_partial(g, remaining, out + M, tau, classes):
                break
        else:
            raise MatchingRetryError(
                f"no feasible matching in {attempts} attempts")
        commit([(groups[a], groups[b]) for (a, b) in pairs])
        groups = remaining

    if groups:
        if len(groups) != 2:
            raise RuntimeError(f"{len(groups)} groups left to match")
        commit([(groups[0], groups[1])])

    return EdgeAdditions(tuple((u, v, 1) for (u, v) in out)).merged()


def augment_by_one(g: Graph, K: Sequence[frozenset[int]], tau: int,
                   rng: random.Random,
                   beta: Optional[dict[int, int]] = None,
                   classes: Optional[Sequence[Iterable[int]]] = None
                   ) -> EdgeAdditions:
    """Add ceil(|K|/2) unit edges raising connectivity from tau-1 to tau,
    attaching each edge to its group's designated terminal; `classes`
    as in `match_groups`."""
    return match_groups(
        g, K, tau, rng,
        edge_vertex=lambda grp: designated_terminal(grp, beta),
        classes=classes)
