"""Reference for the +1 step of augmentation as it was before both
pipelines shared one: each matched edge attaches to its group's
designated terminal, and an odd number of groups spends its extra edge
on a random pair, whatever the budget.  `designated_terminal` and
`augment_by_one` are kept as they were; `match_groups` is the sampling
loop with only the endpoint rule they used.  The tests compare the
one +1 step against it.
"""

from __future__ import annotations

import math
import random
from typing import Callable, Iterable, Optional, Sequence

from steineraug.graph import EdgeAdditions, Graph
from steineraug.matching import MatchingRetryError, is_feasible_partial


def designated_terminal(group: frozenset[int],
                        beta: Optional[dict[int, int]] = None) -> int:
    """Lowest-id terminal, preferring one with vacant degree if known."""
    if beta is not None:
        vac = [t for t in group if beta.get(t, 0) > 0]
        if vac:
            return min(vac)
    return min(group)


def match_groups(g: Graph, K: Sequence[frozenset[int]], tau: int,
                 rng: random.Random,
                 edge_vertex: Callable[[frozenset[int]], int],
                 classes: Optional[Sequence[Iterable[int]]] = None
                 ) -> EdgeAdditions:
    """Algorithm-3 sampling loop; edge_vertex maps a group to the vertex
    its matched edge attaches to."""
    if not K:
        return EdgeAdditions(())
    groups = list(K)
    out: list[tuple[int, int]] = []

    def commit(pairs: list[tuple[frozenset[int], frozenset[int]]]) -> None:
        for (gu, gv) in pairs:
            out.append((edge_vertex(gu), edge_vertex(gv)))

    if len(groups) % 2 == 1:
        i, j = rng.sample(range(len(groups)), 2)
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
