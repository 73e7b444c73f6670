"""Degree-constrained +1 step via surrogate vertices.

At connectivity tau-1 (tau >= 2) the demand-1 groups are the terminal
sets of minimal Steiner min cuts; their supreme sets are recovered with
isolating cuts (no flow when every vertex with vacant degree is a
terminal), and inside each supreme set some vertex still holds vacant
external degree.  The random matching of the unconstrained step
then runs unchanged, except every matched edge attaches to such a
surrogate vertex instead of a terminal.  When the number of groups is
odd and no group can pay for two edges, one spare unit of vacant degree
outside every supreme set joins the matching as a group of its own, so
every edge added comes out of the checked matching, whose checks run
over g's tau-classes as in `matching`.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from . import flow
from .graph import EdgeAdditions, Graph
from .matching import match_groups


def find_surrogates(g: Graph, K_prime: Sequence[frozenset[int]],
                    beta: dict[int, int]
                    ) -> dict[frozenset[int], tuple[frozenset[int], int]]:
    """Per group k: its supreme set mu(k) (minimal isolating cut) and the
    lowest-id vertex of mu(k) with vacant degree.  Each group is the
    terminal set of a Steiner cut, so the parts are 2 or more.  When
    every vertex with vacant degree is a terminal, k stands for mu(k)
    at no flow: mu(k) & T = k, so both hold the same vacant vertices."""
    groups = [frozenset(k) for k in K_prime]
    if all(v in g.terminals for v, w in beta.items() if w >= 1):
        cuts = {k: k for k in groups}
    else:
        rest = frozenset(g.terminals) - frozenset().union(*groups)
        cuts = flow.isolating_cuts(g, groups + ([rest] if rest else []))
    out = {}
    for k in groups:
        mu = cuts[k]
        vac = sorted(v for v in mu if beta.get(v, 0) >= 1)
        if not vac:
            raise RuntimeError(
                f"no vacant vertex inside the supreme set of {sorted(k)}")
        out[k] = (mu, vac[0])
    return out


def deg_augment_by_one(g: Graph, tau: int, beta: dict[int, int],
                       K_prime: Sequence[frozenset[int]],
                       rng: random.Random,
                       classes: Optional[Sequence[Iterable[int]]] = None
                       ) -> EdgeAdditions:
    """Matching step with surrogate endpoints; budget-respecting.
    `classes` as in `matching.match_groups`."""
    if not K_prime:
        return EdgeAdditions(())
    info = find_surrogates(g, K_prime, beta)
    remaining = dict(beta)

    def surrogate(grp: frozenset[int]) -> int:
        mu, _ = info[grp]
        vac = sorted(v for v in mu if remaining.get(v, 0) >= 1)
        if not vac:
            raise RuntimeError(
                f"budget exhausted inside supreme set of {sorted(grp)}")
        return vac[0]

    def consume(grp: frozenset[int], v: int) -> None:
        remaining[v] -= 1
        if remaining[v] < 0:
            raise RuntimeError(f"budget overdrawn at {v}")

    def budget_inside(grp: frozenset[int]) -> int:
        mu, _ = info[grp]
        return sum(remaining.get(v, 0) for v in mu)

    groups = list(K_prime)
    if len(groups) % 2 == 1 and all(budget_inside(k) < 2 for k in groups):
        # No group can afford both ends of the odd edge between two groups.
        # The budget left is even (x's degree is, each chain edge spends 2)
        # and each group holds 1 unit, so an odd number lies outside every
        # supreme set: one such unit is matched as a group of its own.
        inside = frozenset().union(*(info[k][0] for k in groups))
        spare = sorted(v for v, w in remaining.items()
                       if w >= 1 and v not in inside)
        if not spare:
            raise RuntimeError("no spare budget outside the supreme sets")
        k = frozenset({spare[0]})
        info[k] = (k, spare[0])
        groups.append(k)

    return match_groups(g, groups, tau, rng, edge_vertex=surrogate,
                        on_commit=consume, capacity=budget_inside,
                        classes=classes)
