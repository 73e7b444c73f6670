"""Final +1 step: raise Steiner connectivity from tau-1 to tau by
randomly matching the demand-1 terminal groups.

Each live root of demand exactly 1 contributes its terminal set as a
group; a uniformly sampled partial matching is accepted when the current
graph plus the matching plus a unit star into the unmatched groups still
has connectivity tau.  Acceptance probability is at least 1/3 per
attempt, so a logarithmic retry cap suffices.  Each check costs c - 1
flows over the c tau-classes of the graph the step starts from, which
every checked graph contains (`graph.least_steiner_cut`).

Both pipelines reach this loop through `deg_matching.deg_augment_by_one`,
and every edge of their +1 step comes out of it.  A matched edge
attaches inside its group's supreme set, at a vertex with budget left:
augmentation spends its even external solution, splitting-off x's star.
When the number of groups is odd, one group keeps a second edge if its
supreme set can pay for it; if none can, the least unit of budget
outside every supreme set joins the matching as a group of its own.
"""

from __future__ import annotations

import math
import random
from typing import Iterable, Optional, Sequence

from .forest import LaminarForest
from .graph import EdgeAdditions, Graph, add_edges, least_steiner_cut, \
    star_graph


class MatchingRetryError(RuntimeError):
    """No feasible partial matching found within the retry budget."""


def build_K(forest: LaminarForest, tau: int) -> list[frozenset[int]]:
    """Terminal sets of the live roots with demand exactly 1."""
    groups = [forest.nodes[r].terminals for r in forest.roots()
              if tau - forest.nodes[r].c == 1]
    groups.sort(key=min)
    return groups


def is_feasible_partial(g_cur: Graph, K_remaining: Sequence[frozenset[int]],
                        M: Sequence[tuple[int, int]], tau: int,
                        classes: Optional[Sequence[Iterable[int]]] = None
                        ) -> bool:
    """Connectivity check for g_cur + the matching M + a unit star from a
    new vertex into the least terminal of each still-unmatched group, over
    the tau-classes `classes` of a subgraph of g_cur (default:
    singletons)."""
    matched = EdgeAdditions(tuple((u, v, 1) for (u, v) in M))
    h, _ = star_graph(add_edges(g_cur, matched),
                      dict.fromkeys(map(min, K_remaining), 1))
    res = least_steiner_cut(h, tau, classes)
    return res is None or res.value >= tau


def match_groups(g: Graph, supreme: dict[frozenset[int], frozenset[int]],
                 tau: int, rng: random.Random, budget: dict[int, int],
                 classes: Optional[Sequence[Iterable[int]]] = None
                 ) -> EdgeAdditions:
    """Algorithm-3 sampling loop over the groups `supreme` maps to their
    supreme sets, in its order.  A matched group's edge attaches to the
    least vertex of its supreme set with budget left (its surrogate), and
    `budget` is spent in place.  An odd number of groups takes one extra
    edge, or a spare unit as one more group (module docstring).
    `classes`, g's tau-classes, go to every check (`is_feasible_partial`).
    """
    groups = list(supreme)
    out: list[tuple[int, int]] = []     # committed pairs, checked with g

    def surrogate(grp: frozenset[int]) -> int:
        vac = sorted(v for v in supreme[grp] if budget.get(v, 0) >= 1)
        if not vac:
            raise RuntimeError(
                f"budget exhausted inside supreme set of {sorted(grp)}")
        return vac[0]

    def commit(pairs: list[tuple[frozenset[int], frozenset[int]]]) -> None:
        for (gu, gv) in pairs:
            ends = surrogate(gu), surrogate(gv)
            out.append(ends)
            for v in ends:
                budget[v] -= 1
                if budget[v] < 0:
                    raise RuntimeError(f"budget overdrawn at {v}")

    if len(groups) % 2 == 1:
        # One extra edge on a pair of groups; only one endpoint retires.
        # The pair is free to choose, so the kept group is the one that
        # can best afford a second edge.
        left = [sum(budget.get(v, 0) for v in supreme[grp]) for grp in groups]
        j = max(range(len(groups)), key=lambda t: (left[t], -min(groups[t])))
        if left[j] >= 2:
            i = rng.choice([t for t in range(len(groups)) if t != j])
            commit([(groups[i], groups[j])])
            groups.pop(i)
        else:
            # No group can pay both ends.  The budget left is even (x's
            # star and the even external solution are, and each chain
            # edge spends 2) and each group holds 1 unit, so an odd
            # number lies outside every supreme set: the least such unit
            # is matched as a group of its own.
            inside = frozenset().union(*supreme.values())
            spare = [v for v, w in budget.items()
                     if w >= 1 and v not in inside]
            if not spare:
                raise RuntimeError("no spare budget outside the supreme sets")
            k = frozenset({min(spare)})
            supreme = {**supreme, k: k}
            groups.append(k)

    attempts = 128 * max(1, math.ceil(math.log2(max(2, g.n))))
    while len(groups) >= 4:
        p = len(groups) // 4
        for _ in range(attempts):
            order = list(range(len(groups)))
            rng.shuffle(order)
            picked = order[:2 * p]
            pairs = [(picked[2 * i], picked[2 * i + 1]) for i in range(p)]
            M = [(surrogate(groups[a]), surrogate(groups[b]))
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
