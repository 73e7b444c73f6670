"""Rooted laminar forest of terminal sets with the tree machinery the
augmentation schedulers need: the rdem DP, node deletion with child
reattachment, and the two-level heavy-light decomposition of the
external phase, which alone decides the critical nodes, L2 and L_high.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable, Optional


@dataclass
class ForestNode:
    id: int
    terminals: frozenset[int]
    c: int = 0
    rdem: int = 0
    mu_tilde: Optional[frozenset[int]] = None
    parent: Optional[int] = None
    children: list[int] = field(default_factory=list)
    deleted: bool = False


class LaminarForest:
    """Mutable rooted forest over disjoint-or-nested terminal sets.

    Deletion splices a node out (children reattach to the parent), and a
    deleted node keeps the parent it had when deleted: its deepest live
    ancestor at that time.  So walking parents from a deleted node
    reaches its deepest live ancestor now, which the chain scheduler
    reads (lowest_live).
    """

    def __init__(self) -> None:
        self.nodes: dict[int, ForestNode] = {}
        self._next_id = 0

    def add_node(self, terminals: frozenset[int], c: int = 0,
                 mu_tilde: Optional[frozenset[int]] = None,
                 parent: Optional[int] = None) -> int:
        nid = self._next_id
        self._next_id += 1
        self.nodes[nid] = ForestNode(nid, frozenset(terminals), c=c,
                                     mu_tilde=mu_tilde, parent=parent)
        if parent is not None:
            self.nodes[parent].children.append(nid)
        return nid

    @classmethod
    def from_family(cls, entries: Iterable[tuple[frozenset[int], int,
                                                 Optional[frozenset[int]]]]
                    ) -> "LaminarForest":
        """Build from a laminar family of (terminal set, c, mu) entries.

        Containment determines parenthood; entries are sorted largest
        first so each set's parent is already placed.  Node ids follow
        that order, making forests reproducible.
        """
        f = cls()
        ordered = sorted(entries, key=lambda e: (-len(e[0]), sorted(e[0])))
        placed: list[int] = []
        for (terms, c, mu) in ordered:
            parent = None
            best = None
            for pid in placed:
                pt = f.nodes[pid].terminals
                if terms < pt and (best is None or len(pt) < best):
                    parent = pid
                    best = len(pt)
                elif terms == pt:
                    raise ValueError("duplicate terminal set in family")
                elif terms & pt and not (terms <= pt or pt <= terms):
                    raise ValueError("family is not laminar")
            nid = f.add_node(terms, c=c, mu_tilde=mu, parent=parent)
            placed.append(nid)
        return f

    # -- queries ----------------------------------------------------------

    def live(self) -> list[int]:
        return [i for i, nd in sorted(self.nodes.items()) if not nd.deleted]

    def roots(self) -> list[int]:
        return [i for i in self.live() if self.nodes[i].parent is None]

    def children(self, i: int) -> list[int]:
        return list(self.nodes[i].children)

    def root_of(self, i: int) -> int:
        while self.nodes[i].parent is not None:
            i = self.nodes[i].parent
        return i

    def ancestors(self, i: int, include_self: bool = True) -> list[int]:
        out = [i] if include_self else []
        p = self.nodes[i].parent
        while p is not None:
            out.append(p)
            p = self.nodes[p].parent
        return out

    def leaves(self) -> list[int]:
        return [i for i in self.live() if not self.nodes[i].children]

    def excess(self, i: int) -> int:
        """rdem(i) minus its children's rdem: the demand owed at i itself."""
        nd = self.nodes[i]
        return nd.rdem - sum(self.nodes[ch].rdem for ch in nd.children)

    # -- mutation ---------------------------------------------------------

    def delete_node(self, i: int) -> None:
        nd = self.nodes[i]
        if nd.deleted:
            raise ValueError(f"node {i} already deleted")
        p = nd.parent
        for ch in nd.children:
            self.nodes[ch].parent = p
            if p is not None:
                self.nodes[p].children.append(ch)
        if p is not None:
            self.nodes[p].children.remove(i)
        nd.children = []
        nd.deleted = True

    # -- tree DPs ---------------------------------------------------------

    def postorder(self) -> list[int]:
        out = []
        for r in self.roots():
            stack = [(r, False)]
            while stack:
                u, expanded = stack.pop()
                if expanded:
                    out.append(u)
                else:
                    stack.append((u, True))
                    for ch in reversed(self.nodes[u].children):
                        stack.append((ch, False))
        return out

    def compute_rdem(self, tau: int) -> None:
        """Set rdem bottom-up; nodes with c >= tau are contracted away.

        A node whose cut value already meets the target demands nothing
        and is spliced into its parent, so rdem > 0 on every survivor.
        """
        for i in list(self.live()):
            if self.nodes[i].c >= tau:
                self.delete_node(i)
        for i in self.postorder():
            nd = self.nodes[i]
            child_sum = sum(self.nodes[ch].rdem for ch in nd.children)
            nd.rdem = max(tau - nd.c, child_sum)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> str:
        data = []
        for i in self.live():
            nd = self.nodes[i]
            data.append({
                "id": i,
                "terminals": sorted(nd.terminals),
                "parent": nd.parent,
                "c": nd.c,
                "rdem": nd.rdem,
                "mu_tilde": sorted(nd.mu_tilde) if nd.mu_tilde is not None else None,
            })
        return json.dumps(data, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph laminar {", "  node [shape=box];"]
        for i in self.live():
            nd = self.nodes[i]
            label = "{%s} c=%d rdem=%d" % (
                ",".join(map(str, sorted(nd.terminals))), nd.c, nd.rdem)
            lines.append(f'  n{i} [label="{label}"];')
        for i in self.live():
            p = self.nodes[i].parent
            if p is not None:
                lines.append(f"  n{p} -> n{i};")
        lines.append("}")
        return "\n".join(lines)


@dataclass
class HeavyPath:
    id: int
    nodes: list[int]      # top (closest to root) to bottom (a leaf)
    depth: int            # number of heavy paths met walking top -> tree root
    level: str            # "upper" or "lower"
    anchor: int           # the L2 node the path ends at or hangs below


@dataclass
class HeavyPathDecomposition:
    """Two-level heavy-light decomposition of a forest with rdem set.

    A live node is critical when its excess (rdem minus the children's
    rdem sum) is positive: `compute_rdem` sets rdem = max(tau - c, child
    sum), so that is tau - c > child sum.  L2 is the critical nodes with
    no critical proper ancestor, and L_high their ancestors, L2
    included.  L_high is decomposed on its own (upper level) and each
    subtree hanging below an L2 node separately (lower level).  Every
    live node belongs to exactly one path, so the upper paths' nodes are
    exactly L_high.
    """

    paths: list[HeavyPath]
    path_of: dict[int, int]
    critical: set[int]
    l2: set[int]
    lhigh: set[int]

    @classmethod
    def build(cls, f: LaminarForest) -> "HeavyPathDecomposition":
        """Decompose f after `compute_rdem`; an empty f has no paths."""
        live = f.live()
        critical = {i for i in live if f.excess(i) > 0}
        l2 = {i for i in critical
              if critical.isdisjoint(f.ancestors(i, include_self=False))}
        if live and not l2:
            raise ValueError("no critical node (compute_rdem first)")
        lhigh = {a for i in l2 for a in f.ancestors(i)}
        paths: list[HeavyPath] = []
        path_of: dict[int, int] = {}

        def kids(u: int) -> list[int]:
            """u's children on its own side of L2: L_high is decomposed
            apart from the subtrees below it."""
            return [ch for ch in f.nodes[u].children
                    if (ch in lhigh) == (u in lhigh)]

        size: dict[int, int] = {}
        for u in f.postorder():
            size[u] = 1 + sum(size[ch] for ch in kids(u))

        def decompose(tops: list[int], level: str) -> None:
            for top in tops:
                stack = [top]
                while stack:
                    u = stack.pop()
                    nodes = [u]
                    while chs := kids(u):
                        # Heavy child: max size, ties to the lower id.
                        u = min(chs, key=lambda ch: (-size[ch], ch))
                        stack.extend(ch for ch in chs if ch != u)
                        nodes.append(u)
                    # The path holding the head's parent is already built.
                    par = f.nodes[nodes[0]].parent
                    up = None if par is None else paths[path_of[par]]
                    path = HeavyPath(
                        len(paths), nodes, 1 if up is None else up.depth + 1,
                        level, nodes[-1] if level == "upper" else up.anchor)
                    paths.append(path)
                    path_of.update(dict.fromkeys(nodes, path.id))

        # Every leaf is critical, so every root is in L_high, and the
        # leaves of L_high are the L2 nodes: upper paths end at them.
        decompose(f.roots(), "upper")
        decompose([ch for i in sorted(l2)
                   for ch in sorted(f.nodes[i].children)], "lower")
        return cls(paths, path_of, critical, l2, lhigh)
