"""Degree-constrained chain phase: split off the external solution.

Runs the shared chain scheduler (chains.ChainScheduler) on L_high: the
external phase's forest with every node below an L2 node (the highest
critical nodes, which become its leaves) spliced out.  The endpoint
slots are the external phase's (`DegExternalState.slots`), one per
weight block a heavy path placed at one vertex, at the path's anchor;
the chains spend them in place.  L2 nodes are leaves of L_high, so they
are never deleted.
"""

from __future__ import annotations

from .chains import ChainScheduler
from .deg_external import DegExternalState
from .graph import EdgeAdditions, Graph


def ledger_scheduler(g: Graph, state: DegExternalState) -> ChainScheduler:
    """Scheduler over L_high with the external phase's slots.  Single-use:
    it splices the nodes outside L_high out of state.forest and spends
    state.slots in place."""
    forest, hld = state.forest, state.hld
    for i in forest.live():
        if i not in hld.lhigh:
            forest.delete_node(i)
    return ChainScheduler(g, forest, state.slots, state.tau)


def split_off_chains(g: Graph, state: DegExternalState
                     ) -> tuple[EdgeAdditions, ChainScheduler]:
    sched = ledger_scheduler(g, state)
    return sched.run(), sched
