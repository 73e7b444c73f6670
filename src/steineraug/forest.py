"""Rooted laminar forest of terminal sets with the tree machinery the
augmentation schedulers need: rdem DP, critical marking, L2/L_high, the
two-level heavy-light decomposition of the external phase, and node
deletion with child reattachment.
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
    critical: bool = False
    in_L2: bool = False
    deleted: bool = False


class LaminarForest:
    """Mutable rooted forest over disjoint-or-nested terminal sets.

    Deletion splices a node out (children reattach to the parent), so a
    survivor's live ancestors are exactly its construction-time ancestors
    that are still live.  The chain scheduler relies on this: walking the
    construction-time parents from a deleted node reaches its deepest
    live ancestor (lowest_live).
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

    def parent(self, i: int) -> Optional[int]:
        return self.nodes[i].parent

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

    def subtree(self, i: int) -> list[int]:
        out = []
        stack = [i]
        while stack:
            u = stack.pop()
            out.append(u)
            stack.extend(reversed(self.nodes[u].children))
        return out

    def leaves(self) -> list[int]:
        return [i for i in self.live() if not self.nodes[i].children]

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
        nd.parent = None
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

    def mark_critical(self, tau: int) -> None:
        """critical iff own demand strictly exceeds the children's rdem sum."""
        for i in self.live():
            nd = self.nodes[i]
            child_sum = sum(self.nodes[ch].rdem for ch in nd.children)
            nd.critical = (tau - nd.c) > child_sum

    def compute_L2_Lhigh(self) -> tuple[set[int], set[int]]:
        """L2 = critical nodes with no critical proper ancestor;
        L_high = union of L2-to-root paths (L2 nodes included)."""
        l2: set[int] = set()
        for i in self.live():
            if not self.nodes[i].critical:
                continue
            if any(self.nodes[a].critical
                   for a in self.ancestors(i, include_self=False)):
                continue
            l2.add(i)
        lhigh: set[int] = set()
        for i in l2:
            lhigh.update(self.ancestors(i))
        for i in self.live():
            self.nodes[i].in_L2 = i in l2
        return l2, lhigh

    def heavy_light(self) -> "HeavyPathDecomposition":
        return HeavyPathDecomposition.build(self)

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
                "critical": nd.critical,
                "in_L2": nd.in_L2,
                "mu_tilde": sorted(nd.mu_tilde) if nd.mu_tilde is not None else None,
            })
        return json.dumps(data, indent=2)

    def to_dot(self) -> str:
        lines = ["digraph laminar {", "  node [shape=box];"]
        for i in self.live():
            nd = self.nodes[i]
            label = "{%s} c=%d rdem=%d%s" % (
                ",".join(map(str, sorted(nd.terminals))), nd.c, nd.rdem,
                " L2" if nd.in_L2 else (" crit" if nd.critical else ""))
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


class HeavyPathDecomposition:
    """Two-level heavy-light decomposition of a laminar forest.

    L_high is decomposed on its own (upper level, paths bottoming out at
    L2 nodes) and each subtree hanging below an L2 node is decomposed
    separately (lower level).  Every live node belongs to exactly one
    path, so the upper paths' nodes are exactly L_high.
    """

    def __init__(self, paths: list[HeavyPath], path_of: dict[int, int]):
        self.paths = paths
        self.path_of = path_of

    @classmethod
    def build(cls, f: LaminarForest) -> "HeavyPathDecomposition":
        """Decompose f after `mark_critical`; sets the L2 flags."""
        l2, lhigh = f.compute_L2_Lhigh()
        if not l2:
            raise ValueError("no critical node (mark_critical)")

        def restricted_children(u: int, region: Optional[set[int]]) -> list[int]:
            return [ch for ch in f.nodes[u].children
                    if region is None or ch in region]

        # L2 nodes have no children inside L_high (their descendants have
        # a critical proper ancestor), so upper paths stop at them.
        def decompose(top_nodes: list[int], region: Optional[set[int]],
                      level: str, paths: list[HeavyPath],
                      path_of: dict[int, int]) -> None:
            # Subtree sizes within the region.
            size: dict[int, int] = {}
            for top in top_nodes:
                order = []
                stack = [top]
                while stack:
                    u = stack.pop()
                    order.append(u)
                    stack.extend(restricted_children(u, region))
                for u in reversed(order):
                    size[u] = 1 + sum(size[ch]
                                      for ch in restricted_children(u, region))
            for top in top_nodes:
                stack = [top]
                while stack:
                    head = stack.pop()
                    path = []
                    u = head
                    while True:
                        path.append(u)
                        chs = restricted_children(u, region)
                        if not chs:
                            break
                        # Heavy child: max size, ties to the lower id.
                        heavy = min(chs, key=lambda ch: (-size[ch], ch))
                        for ch in chs:
                            if ch != heavy:
                                stack.append(ch)
                        u = heavy
                    pid = len(paths)
                    paths.append(HeavyPath(pid, path, depth=0, level=level))
                    for v in path:
                        path_of[v] = pid

        paths: list[HeavyPath] = []
        path_of: dict[int, int] = {}
        decompose([r for r in f.roots() if r in lhigh], lhigh, "upper",
                  paths, path_of)
        lower_tops = []
        for i in sorted(l2):
            lower_tops.extend(sorted(f.nodes[i].children))
        decompose(lower_tops, None, "lower", paths, path_of)

        # Path depth: 1 for paths headed by a forest root, else one more
        # than the depth of the parent's path.
        def depth_of(pid: int) -> int:
            p = paths[pid]
            if p.depth:
                return p.depth
            head = p.nodes[0]
            par = f.nodes[head].parent
            if par is None:
                p.depth = 1
            else:
                p.depth = depth_of(path_of[par]) + 1
            return p.depth

        for pid in range(len(paths)):
            depth_of(pid)
        return cls(paths, path_of)
