"""Degree-constrained chain phase: split off the external solution.

Runs the shared chain scheduler (chains.ChainScheduler) on the L_high
sub-forest: the ancestors of the L2 nodes (the highest critical nodes),
which are its leaves.  Every entry of the external phase's ledger (the
weight one heavy path placed at one vertex) becomes one endpoint slot.
Its node is the L2 node the path bottoms out at (upper level) or hangs
below (lower level); a root spends lower-level slots first, then those
of shallower paths, then by vertex and path id.  L2 nodes have no
children in the sub-forest, so they are never deleted.
"""

from __future__ import annotations

from .chains import ChainScheduler, Slot
from .deg_external import DegExternalState
from .forest import LaminarForest
from .graph import EdgeAdditions, Graph


def ledger_scheduler(g: Graph, state: DegExternalState) -> ChainScheduler:
    """Scheduler over the L_high sub-forest with one slot per ledger entry."""
    forest, hld = state.forest, state.hld
    # L_high is the nodes of the upper paths.  It is closed under
    # ancestors, so parenthood is inherited; from_family remaps the ids
    # and keeps c and mu_tilde.
    sub = LaminarForest.from_family(
        [(forest.nodes[i].terminals, forest.nodes[i].c,
          forest.nodes[i].mu_tilde)
         for p in hld.paths if p.level == "upper" for i in p.nodes])
    sub_id = {sub.nodes[j].terminals: j for j in sub.live()}

    slots = []
    for asg in state.assignments:
        path = hld.paths[asg.path_id]
        if asg.level == "upper":
            leaf = path.nodes[-1]
            if not forest.nodes[leaf].in_L2:
                raise RuntimeError("upper paths must bottom out at an L2 node")
        else:
            leaf = next((anc for anc in forest.ancestors(path.nodes[0])
                         if forest.nodes[anc].in_L2), None)
            if leaf is None:
                raise RuntimeError("lower path without L2 ancestor")
        rank = 0 if asg.level == "lower" else 1
        slots.append(Slot(asg.vertex, asg.weight,
                          sub_id[forest.nodes[leaf].terminals],
                          (rank, path.depth, asg.vertex, asg.path_id)))
    return ChainScheduler(g, sub, slots, state.tau)


def split_off_chains(g: Graph, state: DegExternalState
                     ) -> tuple[EdgeAdditions, ChainScheduler]:
    sched = ledger_scheduler(g, state)
    return sched.run(), sched
