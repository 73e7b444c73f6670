"""Degree-constrained external augmentation.

Given per-vertex budgets beta for edges toward an external vertex x, add
external weight of total value sum of rdem over the forest roots without
exceeding any budget.  One directed max flow per heavy path decides
where that path's share of the weight lands; flow routed through the
helper vertex y becomes new (u, x) weight.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import flow
from .external import ExternalSolution
from .forest import HeavyPath, HeavyPathDecomposition, LaminarForest
from .graph import Graph, star_graph, steiner_connectivity


class InfeasibleBudgetError(ValueError):
    """beta cannot raise the Steiner connectivity to tau."""


@dataclass
class DegAssignment:
    """One unit block of external weight and the path that placed it."""

    vertex: int
    weight: int
    path_id: int
    level: Optional[str]


@dataclass
class DegExternalState:
    g: Graph
    tau: int
    beta: dict[int, int]
    forest: LaminarForest
    hld: HeavyPathDecomposition
    wx: dict[int, int] = field(default_factory=dict)
    assignments: list[DegAssignment] = field(default_factory=list)
    deltas: dict[int, int] = field(default_factory=dict)

    def solution(self) -> ExternalSolution:
        return ExternalSolution({u: w for u, w in sorted(self.wx.items())
                                 if w > 0})


def check_feasibility(g: Graph, tau: int, beta: dict[int, int]) -> bool:
    """Literal check: g plus a star of capacity beta(u) per vertex must
    reach connectivity tau."""
    if any(w < 0 for w in beta.values()):
        return False
    pos = {u: w for u, w in beta.items() if w > 0}
    h = star_graph(g, pos)[0] if pos else g
    return steiner_connectivity(h) >= tau


def _path_bottom_up(path: HeavyPath) -> list[int]:
    return list(reversed(path.nodes))


def _delta_for(state: DegExternalState, top: int, exclude: int) -> int:
    """rdem(top) minus the rdem of the outermost heavy-path heads strictly
    below it; a nested head's demand is already inside its outer head's."""
    f, path_of = state.forest, state.hld.path_of
    tops = {p.nodes[0] for p in state.hld.paths}
    sub = set(f.subtree(top))
    below = sum(f.nodes[w].rdem for w in tops if w in sub and w != exclude
                and path_of[f.nodes[w].parent] == path_of[top])
    return f.nodes[top].rdem - below


def build_H(state: DegExternalState, path: HeavyPath
            ) -> tuple[flow.FlowNetwork, dict]:
    """Directed helper network for one heavy path (bottom node R1 up to
    Rk), following the six construction steps; contraction is realized
    by node merging."""
    g, f = state.g, state.forest
    rs = _path_bottom_up(path)
    rk = rs[-1]
    mu = f.nodes[rk].mu_tilde
    assert mu is not None, f"node {rk} lost its vertex set"

    # Vertex blocks: one node per terminal layer R_i \ R_{i-1}, one per
    # uncontracted vertex of mu, one for everything else including x.
    comp: dict[int, int] = {}
    next_id = 0
    block_of: list[int] = []
    prev: frozenset[int] = frozenset()
    for r in rs:
        layer = f.nodes[r].terminals - prev
        assert layer, "heavy path layers must strictly grow"
        for u in layer:
            comp[u] = next_id
        block_of.append(next_id)
        next_id += 1
        prev = f.nodes[r].terminals
    for u in sorted(mu):
        if u not in comp:
            comp[u] = next_id
            next_id += 1
    sink = next_id                  # V u {x} outside mu, merged with x
    next_id += 1
    for u in range(g.n):
        comp.setdefault(u, sink)
    y = next_id
    next_id += 1

    arcs: list[tuple[int, int, Optional[int]]] = []
    for (u, v, w) in g.edges:
        cu, cv = comp[u], comp[v]
        if cu != cv:
            arcs.append((cu, cv, w))
            arcs.append((cv, cu, w))
    for u, w in sorted(state.wx.items()):
        if w > 0 and comp[u] != sink:
            arcs.append((comp[u], sink, w))
            arcs.append((sink, comp[u], w))
    uy_arcs: dict[int, int] = {}    # arc index -> original vertex
    for u in range(g.n):
        cap = state.beta.get(u, 0) - state.wx.get(u, 0)
        assert cap >= 0, f"budget exceeded at {u} before processing"
        if cap > 0 and comp[u] != sink:
            uy_arcs[len(arcs)] = u
            arcs.append((comp[u], y, cap))
    for i in range(len(rs) - 1):
        arcs.append((block_of[i + 1], block_of[i], None))

    delta = _delta_for(state, rk, exclude=rk)
    assert delta >= 0, "negative per-path demand"
    # Monotonicity of the prefix demands along the path.
    prev_val = None
    for r in rs:
        val = _delta_for(state, r, exclude=rk)
        assert prev_val is None or val >= prev_val, \
            "per-path demand must be monotone along the path"
        prev_val = val
    yx_index = len(arcs)
    arcs.append((y, sink, delta))

    net = flow.FlowNetwork(next_id, tuple(arcs),
                           frozenset({block_of[0]}), frozenset({sink}))
    meta = {"uy_arcs": uy_arcs, "yx_index": yx_index, "delta": delta,
            "sink": sink, "source": block_of[0], "comp": comp, "y": y}
    return net, meta


def _highest_critical(state: DegExternalState, path: HeavyPath) -> int:
    for r in path.nodes:            # top to bottom
        if state.forest.nodes[r].critical:
            return r
    raise AssertionError("heavy path without a critical node")


def process_path(state: DegExternalState, path: HeavyPath) -> None:
    net, meta = build_H(state, path)
    res = flow.max_flow(net)
    if res.value != state.tau:
        raise RuntimeError(
            f"path {path.id}: flow value {res.value} != tau {state.tau}")
    if res.flows[meta["yx_index"]] != meta["delta"]:
        raise RuntimeError(f"path {path.id}: the (y, x) arc is not saturated")
    state.deltas[path.id] = meta["delta"]
    rm = _highest_critical(state, path)
    mu_m = state.forest.nodes[rm].mu_tilde
    for idx, u in meta["uy_arcs"].items():
        fval = res.flows[idx]
        if fval > 0:
            assert mu_m is None or u in mu_m, \
                "new weight must land inside the highest critical set"
            state.wx[u] = state.wx.get(u, 0) + fval
            state.assignments.append(
                DegAssignment(u, fval, path.id, path.level))


def deg_external_augment(g: Graph, tau: int, beta: dict[int, int],
                         forest: LaminarForest,
                         hld: Optional[HeavyPathDecomposition] = None
                         ) -> DegExternalState:
    """Process every heavy path bottom-up; the result is feasible and of
    optimal total value sum(rdem over roots).

    The forest must already have rdem computed for tau.  By default the
    two-level decomposition (upper paths ending at the highest critical
    nodes) is used so the assignment records feed the chain phase.
    """
    if not check_feasibility(g, tau, beta):
        raise InfeasibleBudgetError("budget cannot reach the target")
    if hld is None:
        forest.mark_critical(tau)
        if forest.live():
            forest.compute_L2_Lhigh()
            hld = forest.heavy_light(stop_at_l2=True)
        else:
            hld = HeavyPathDecomposition([], {})
    state = DegExternalState(g, tau, dict(beta), forest, hld)
    order = sorted(hld.paths, key=lambda p: (-p.depth, p.nodes[0]))
    for path in order:
        process_path(state, path)
    total = sum(state.wx.values())
    want = sum(forest.nodes[r].rdem for r in forest.roots())
    if total != want:
        raise RuntimeError(f"total {total} != optimum {want}")
    for u, w in state.wx.items():
        if w > beta.get(u, 0):
            raise RuntimeError(f"budget exceeded at {u}")
    return state
