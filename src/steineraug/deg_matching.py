"""Degree-constrained +1 step via surrogate vertices.

At connectivity tau-1 the demand-1 groups are the terminal sets of
minimal Steiner min cuts; their supreme sets are recovered with
isolating cuts, and inside each supreme set some vertex still holds
vacant external degree.  The random matching of the unconstrained step
then runs unchanged, except every matched edge attaches to such a
surrogate vertex instead of a terminal.  When the number of groups is
odd and no group can pay for two edges, the odd edge instead joins one
group to vacant degree outside every supreme set.  At tau = 1 the groups
are the terminal components, and a path through them, in K's order,
replaces the matching, which cannot join four or more components.
"""

from __future__ import annotations

import random
from typing import Sequence

from . import flow
from .graph import EdgeAdditions, Graph, add_edges
from .matching import match_groups


def find_surrogates(g: Graph, K_prime: Sequence[frozenset[int]],
                    beta: dict[int, int]
                    ) -> dict[frozenset[int], tuple[frozenset[int], int]]:
    """Per group k: its supreme set mu(k) (minimal isolating cut) and the
    lowest-id vertex of mu(k) with vacant degree."""
    groups = [frozenset(k) for k in K_prime]
    rest = frozenset(g.terminals) - frozenset().union(*groups)
    parts = groups + ([rest] if rest else [])
    if len(parts) >= 2:
        cuts = flow.isolating_cuts(g, parts)
    else:
        cuts = {groups[0]: frozenset(range(g.n)) - rest}
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
                       rng: random.Random) -> EdgeAdditions:
    """Matching step with surrogate endpoints; budget-respecting."""
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
    if tau == 1:
        # Each mu(k) is k's terminal component, where x reaches two or more
        # budgeted vertices (no cut edge to x): a path joins them all.
        path = []
        for a, b in zip(groups, groups[1:]):
            u = surrogate(a)
            consume(a, u)
            v = surrogate(b)
            consume(b, v)
            path.append((u, v, 1))
        return EdgeAdditions(tuple(path)).merged()
    odd = EdgeAdditions(())
    if len(groups) % 2 == 1 and all(budget_inside(k) < 2 for k in groups):
        # No group can afford both ends of the odd edge between two
        # groups; retire one group with an edge to spare budget outside
        # every supreme set instead.
        inside = frozenset().union(*(info[k][0] for k in groups))
        spare = sorted(v for v, w in remaining.items()
                       if w >= 1 and v not in inside)
        if spare:
            k = max(groups, key=lambda k: (budget_inside(k), -min(k)))
            groups.remove(k)
            u = surrogate(k)
            consume(k, u)
            remaining[spare[0]] -= 1
            odd = EdgeAdditions(((u, spare[0], 1),))
            g = add_edges(g, odd)

    return odd.combine(match_groups(g, groups, tau, rng,
                                    edge_vertex=surrogate,
                                    on_commit=consume,
                                    capacity=budget_inside))
