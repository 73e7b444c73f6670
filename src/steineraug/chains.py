"""Augmentation-chain phase, shared by augmentation and splitting-off:
`run_chains` is its one entry, called by `deg_chains.split_off`.

A chain threads one edge between consecutive maximal supreme sets of
demand >= 2 (the live forest roots), with the two roots of least c at
its ends.  Every edge end spends one unit of an *endpoint slot*: a
budget (`remaining`) at a `vertex` whose use raises the c values on the
root path of the slot's `node`; within a root, vacant slots are spent in
`key` order.  The external phase emits the slots: augmentation one per
budgeted terminal of its even solution (budget_slots), splitting-off
one per weight block `deg_external` placed.  A chain is its list of
endpoint uses, a1, b2, a2, ..., br, whose pairs (a_i, b_(i+1)) are its
edges F.  Chain ends always lie under different roots, so an edge
raises exactly the two root paths of its ends.

Each batch commits t_F = min(t1, t2, t3) copies of the chain: t1 is
when a slot runs dry, t2 when a root reaches demand 1, t3 when a node's
c meets a child's (the node is then deleted).  The chain is rebuilt
after every batch; the phase stops when every root has demand <= 1,
i.e. connectivity tau-1.  The c values live on the forest nodes and are
current after every batch: a batch adds t times each node's rate, the
number of endpoint uses below it.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from .forest import LaminarForest
from .graph import EdgeAdditions, Graph

_INF = float("inf")


@dataclass(eq=False)
class Slot:
    """One endpoint resource; hashed and compared by identity."""

    vertex: int          # where the added edge lands
    remaining: int       # budget left on the slot
    node: int            # deepest forest node the endpoint raises
    key: tuple           # order in which a root's slots are spent


@dataclass
class Chain:
    roots: list[int]      # X1..Xr (forest node ids)
    ends: list[Slot]      # a1, b2, a2, ..., br: edge i runs a_i -> b_(i+1)

    def edges(self) -> list[tuple[int, int]]:
        return [(a.vertex, b.vertex)
                for a, b in zip(self.ends[::2], self.ends[1::2])]

    def d_F(self) -> Counter[Slot]:
        """Endpoint uses per slot; a middle root's slot may be used twice."""
        return Counter(self.ends)


class ChainScheduler:
    """Owns the forest (whose nodes carry the c values) and the slots."""

    def __init__(self, g: Graph, forest: LaminarForest, slots: list[Slot],
                 tau: int) -> None:
        self.g = g
        self.forest = forest
        self.tau = tau
        self.slots = sorted(slots, key=lambda s: s.key)
        self.out: list[tuple[int, int, int]] = []
        self.chain: Optional[Chain] = None
        self.edge_update_count = 0
        self.event_counts = {"slot": 0, "dem": 0, "delete": 0}

    def c(self, r: int) -> int:
        return self.forest.nodes[r].c

    def dem(self, r: int) -> int:
        return self.tau - self.c(r)

    def lowest_live(self, i: int) -> Optional[int]:
        """Deepest live node at or above i; None once all are deleted (a
        terminal of a deleted root that none of its children holds).  A
        deleted node's parent was its deepest live ancestor when it was
        deleted, so the walk skips only deleted nodes."""
        while i is not None and self.forest.nodes[i].deleted:
            i = self.forest.nodes[i].parent
        return i

    def build_chain(self) -> Optional[Chain]:
        roots = [r for r in self.forest.roots() if self.dem(r) >= 2]
        if not roots:
            self.chain = None
            return None
        if len(roots) < 2:
            raise RuntimeError("a single demand root cannot occur")
        vacant: dict[int, list[Slot]] = {}
        for s in self.slots:
            i = self.lowest_live(s.node) if s.remaining > 0 else None
            if i is not None:
                vacant.setdefault(self.forest.root_of(i), []).append(s)
        # X1 = minimum c (ties: lowest id); Xr = second minimum (ties:
        # highest id), so that with all values equal the chain runs in
        # ascending id order end to end.
        end1 = min(roots, key=lambda r: (self.c(r), r))
        end2 = min((r for r in roots if r != end1),
                   key=lambda r: (self.c(r), -r))
        order = [end1] + sorted(set(roots) - {end1, end2}) + [end2]
        ends: list[Slot] = []
        for r in order:
            vac = vacant.get(r)
            if not vac:
                raise RuntimeError(f"demand root {r} has no vacant slot")
            ends.append(vac[0])  # b, or an end root's only end
            if r in (end1, end2):
                continue
            if vac[0].remaining < 2 and len(vac) < 2:
                raise RuntimeError(
                    f"root {r} cannot supply two endpoint slots")
            ends.append(vac[vac[0].remaining < 2])  # a: b's slot if 2 left
        chain = Chain(order, ends)
        prev = set(self.chain.edges()) if self.chain is not None else set()
        self.edge_update_count += len(set(chain.edges()) - prev)
        self.chain = chain
        return chain

    # -- expiration -------------------------------------------------------

    def rates(self, chain: Chain) -> dict[int, int]:
        """Per-copy c increment per forest node (live ancestors of each
        endpoint use's node)."""
        rate: dict[int, int] = {}
        for s in chain.ends:
            i: Optional[int] = self.lowest_live(s.node)
            while i is not None:
                rate[i] = rate.get(i, 0) + 1
                i = self.forest.nodes[i].parent
        return rate

    def expiration(self, chain: Chain) -> int:
        t1 = min(s.remaining // d for s, d in chain.d_F().items())
        # Condition-authoritative form: the last copy allowed is the one
        # after which some root's demand drops below 2.  An end root takes
        # one edge end per copy, a middle one two.
        ends = (chain.roots[0], chain.roots[-1])
        t2 = min(-(-(self.tau - 1 - self.c(r)) // (1 if r in ends else 2))
                 for r in chain.roots)
        rate = self.rates(chain)
        t3 = _INF
        for r, rr in rate.items():
            for w in self.forest.children(r):
                rw = rate.get(w, 0)
                if rr > rw:
                    t3 = min(t3, -(-(self.c(w) - self.c(r)) // (rr - rw)))
        t_f = min(t1, t2, t3)
        if t_f < 1:
            raise RuntimeError("chain invalid at birth")
        return int(t_f)

    # -- application ------------------------------------------------------

    def apply_chain(self, chain: Chain, t: int) -> list[int]:
        """Commit t copies and record the events they fire; returns the
        nodes deleted by the c updates."""
        if t == 0:
            return []
        d_f = chain.d_F()
        if any(s.remaining < t * d for s, d in d_f.items()):
            raise RuntimeError("budget underflow")
        for s, d in d_f.items():
            s.remaining -= t * d
        self.out.extend((u, v, t) for (u, v) in chain.edges())
        for i, rate in self.rates(chain).items():
            self.forest.nodes[i].c += t * rate
        # Deletion rule c(R) >= c(W); bottom-up, each node sees its
        # surviving descendants as children.
        deleted = []
        for i in self.forest.postorder():
            if any(self.c(i) >= self.c(w) for w in self.forest.children(i)):
                self.forest.delete_node(i)
                deleted.append(i)
        self.event_counts["slot"] += sum(s.remaining < d
                                         for s, d in d_f.items())
        self.event_counts["dem"] += sum(self.dem(r) <= 1 for r in chain.roots
                                        if r not in deleted)
        self.event_counts["delete"] += len(deleted)
        return deleted

    def run(self) -> EdgeAdditions:
        while (chain := self.build_chain()) is not None:
            self.apply_chain(chain, self.expiration(chain))
        return EdgeAdditions(tuple(self.out)).merged()


def budget_slots(forest: LaminarForest, beta: dict[int, int]) -> list[Slot]:
    """One slot per budgeted terminal, at the deepest live node holding
    it, the first in post-order, as the nodes holding it form a chain;
    budget outside the forest can never be an endpoint."""
    lowest: dict[int, int] = {}
    for i in forest.postorder():
        for t in forest.nodes[i].terminals:
            lowest.setdefault(t, i)
    return [Slot(v, w, lowest[v], (v,)) for v, w in sorted(beta.items())
            if w > 0 and v in lowest]


def run_chains(g: Graph, forest: LaminarForest, slots: list[Slot], tau: int
               ) -> tuple[EdgeAdditions, ChainScheduler]:
    """Run the chain phase over the endpoint slots, spending them in
    place; returns the additions and the final state.

    The forest must have rdem computed (nodes with c >= tau contracted).
    Afterwards every live root has demand <= 1.
    """
    sched = ChainScheduler(g, forest, slots, tau)
    return sched.run(), sched
