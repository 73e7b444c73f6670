"""The +1 step of both pipelines: a degree-constrained matching via
surrogate vertices.

At connectivity tau-1 (tau >= 2) the demand-1 groups are the terminal
sets of minimal Steiner min cuts; their supreme sets are recovered with
isolating cuts (no flow when every vertex with vacant degree is a
terminal, as with augmentation's even external solution), and inside
each supreme set some vertex still holds vacant external degree.  The
random matching (`matching.match_groups`) attaches every matched edge to
such a surrogate vertex, so augmentation splits off its even external
star just as splitting-off splits x's.  When the number of groups is
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
    """The +1 step of both pipelines: ceil(|K'|/2) unit edges raising
    connectivity from tau-1 to tau, each within the budget left `beta`
    (not changed here).  `classes` as in `matching.match_groups`."""
    if not K_prime:
        return EdgeAdditions(())
    supreme = {k: mu for k, (mu, _) in
               find_surrogates(g, K_prime, beta).items()}
    if len(K_prime) % 2 == 1 and all(
            sum(beta.get(v, 0) for v in mu) < 2 for mu in supreme.values()):
        # No group can afford both ends of the odd edge between two groups.
        # The budget left is even (x's star and the even external solution
        # are, and each chain edge spends 2) and each group holds 1 unit,
        # so an odd number lies outside every supreme set: one such unit is
        # matched as a group of its own.
        inside = frozenset().union(*supreme.values())
        spare = sorted(v for v, w in beta.items()
                       if w >= 1 and v not in inside)
        if not spare:
            raise RuntimeError("no spare budget outside the supreme sets")
        k = frozenset({spare[0]})
        supreme[k] = k

    return match_groups(g, supreme, tau, rng, dict(beta), classes)
