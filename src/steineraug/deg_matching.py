"""The +1 step of both pipelines: a degree-constrained matching via
surrogate vertices.

At connectivity tau-1 (tau >= 2) the demand-1 groups are the terminal
sets of minimal Steiner min cuts; their supreme sets are recovered with
isolating cuts (no flow when every vertex with vacant degree is a
terminal, as with augmentation's even external solution), and inside
each supreme set some vertex still holds vacant external degree.  The
random matching (`matching.match_groups`) attaches every matched edge to
such a surrogate vertex, so augmentation splits off its even external
star just as splitting-off splits x's.  It also decides the odd number
of groups, a spare unit outside every supreme set included, so every
edge added comes out of the checked matching, whose checks run over
g's tau-classes as in `matching`.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from . import flow
from .graph import EdgeAdditions, Graph
from .matching import match_groups


def find_surrogates(g: Graph, K_prime: Sequence[frozenset[int]],
                    beta: dict[int, int]
                    ) -> dict[frozenset[int], frozenset[int]]:
    """Per group k: its supreme set mu(k) (minimal isolating cut), where
    some vertex must have vacant degree.  Each group is the terminal set
    of a Steiner cut, so the parts are 2 or more.  When every vertex with
    vacant degree is a terminal, k stands for mu(k) at no flow: mu(k) &
    T = k, so both hold the same vacant vertices."""
    groups = [frozenset(k) for k in K_prime]
    if all(v in g.terminals for v, w in beta.items() if w >= 1):
        cuts = {k: k for k in groups}
    else:
        rest = frozenset(g.terminals) - frozenset().union(*groups)
        cuts = flow.isolating_cuts(g, groups + ([rest] if rest else []))
    for k in groups:
        if not any(beta.get(v, 0) >= 1 for v in cuts[k]):
            raise RuntimeError(
                f"no vacant vertex inside the supreme set of {sorted(k)}")
    return {k: cuts[k] for k in groups}


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
    return match_groups(g, find_surrogates(g, K_prime, beta), tau, rng,
                        dict(beta), classes)
