"""Degree-constrained augmentation: split off an external solution.

An external solution split off under the degree constraints it induces
is a degree-constrained augmentation solution, so both pipelines end in
`split_off` and differ only in the external phase that placed the
budget beta and its endpoint slots (`chains.Slot`).  The chain phase
spends the slots in place, raising the connectivity to tau - 1; the +1
step (`deg_matching.deg_augment_by_one`) spends what the chains left.
"""

from __future__ import annotations

import random
from typing import Iterable, Optional, Sequence

from .chains import Slot, run_chains
from .deg_matching import deg_augment_by_one
from .forest import LaminarForest
from .graph import EdgeAdditions, Graph, add_edges
from .matching import build_K


def split_off(g: Graph, tau: int, forest: LaminarForest, slots: list[Slot],
              beta: dict[int, int], seed: int,
              classes: Optional[Sequence[Iterable[int]]], report: dict
              ) -> EdgeAdditions:
    """Split beta off g to reach connectivity tau: the chains over slots,
    then the +1 step.  The forest must have rdem computed; `classes` are
    the tau-classes of g.  Writes the phases' weights to report."""
    chain_adds, _ = run_chains(g, forest, slots, tau)
    report["phases"]["chains"] = chain_adds.total_weight
    # Each chain edge spends one unit of budget at both ends.
    deg = chain_adds.degrees()
    rem = {u: w - deg[u] for u, w in beta.items()}
    K = build_K(forest, tau)
    rng = random.Random(seed ^ 0x5DEECE66D)
    # g plus the chains contains g, so g's tau-classes serve every +1 check.
    match_adds = deg_augment_by_one(add_edges(g, chain_adds), tau, rem, K,
                                    rng, classes=classes)
    report["phases"]["matching"] = match_adds.total_weight
    return chain_adds.combine(match_adds)
