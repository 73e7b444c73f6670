"""Degree-constrained chain phase: split off the external solution.

Runs the shared chain scheduler (chains.ChainScheduler) on L_high: the
external phase's forest with every node below an L2 node (the highest
critical nodes, which become its leaves) spliced out.  Every entry of
the external phase's ledger (the weight one heavy path placed at one
vertex) becomes one endpoint slot at its path's anchor, the L2 node the
path ends at (upper level) or hangs below (lower level); a root spends
lower-level slots first, then those of shallower paths, then by vertex
and path id.  L2 nodes are leaves of L_high, so they are never deleted.
"""

from __future__ import annotations

from .chains import ChainScheduler, Slot
from .deg_external import DegExternalState
from .graph import EdgeAdditions, Graph


def ledger_scheduler(g: Graph, state: DegExternalState) -> ChainScheduler:
    """Scheduler over L_high with one slot per ledger entry; splices the
    nodes outside L_high out of state.forest, which the chains then own."""
    forest, hld = state.forest, state.hld
    for i in forest.live():
        if i not in hld.lhigh:
            forest.delete_node(i)
    slots = []
    for asg in state.assignments:
        path = hld.paths[asg.path_id]
        rank = 0 if path.level == "lower" else 1
        slots.append(Slot(asg.vertex, asg.weight, path.anchor,
                          (rank, path.depth, asg.vertex, asg.path_id)))
    return ChainScheduler(g, forest, slots, state.tau)


def split_off_chains(g: Graph, state: DegExternalState
                     ) -> tuple[EdgeAdditions, ChainScheduler]:
    sched = ledger_scheduler(g, state)
    return sched.run(), sched
