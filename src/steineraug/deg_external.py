"""Degree-constrained external augmentation.

Given per-vertex budgets beta for edges toward an external vertex x, add
external weight of total value sum of rdem over the forest roots without
exceeding any budget.  One directed max flow per heavy path decides
where that path's share of the weight lands; flow routed through the
helper vertex y becomes new (u, x) weight.  The share, the path's
demand, is rdem of its top minus the rdem of the paths hanging off it;
that telescopes to the sum of its nodes' excess (rdem minus the
children's rdem), and the sum from any node down is the demand below
it.  The paths, the critical nodes and L2 are those of
`forest.HeavyPathDecomposition`.  Each new weight block is one endpoint
slot (`chains.Slot`) of the chain phase (`deg_chains.split_off`), at
the anchor of the path that placed it: the L2 node the path ends at
(upper level) or hangs below (lower level).  Lower-level slots are
spent first, then those of shallower paths, then by vertex and path id.
The phase hands over L_high, the chain phase's forest: every node below
an L2 node (the highest critical nodes, which become its leaves) is
spliced out once the paths are processed, so every anchor stays live.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from . import flow
from .chains import Slot
from .forest import HeavyPath, HeavyPathDecomposition, LaminarForest
from .graph import Graph, star_graph, steiner_connectivity


class InfeasibleBudgetError(ValueError):
    """beta cannot raise the Steiner connectivity to tau."""


@dataclass
class DegExternalState:
    g: Graph
    tau: int
    beta: dict[int, int]
    forest: LaminarForest
    hld: HeavyPathDecomposition
    wx: dict[int, int] = field(default_factory=dict)
    slots: list[Slot] = field(default_factory=list)


def check_feasibility(g: Graph, tau: int, beta: dict[int, int]) -> bool:
    """Literal check: g plus a star of capacity beta(u) per vertex must
    reach connectivity tau, by a sweep on that graph's network.  When
    every positive budget lies on a terminal, `star_target` reads the
    same answer off g's forest at no flow."""
    if any(w < 0 for w in beta.values()):
        return False
    return steiner_connectivity(star_graph(g, beta)[0], tau) >= tau


def star_target(g: Graph, forest: LaminarForest, beta: dict[int, int],
                bound: int) -> Optional[int]:
    """min(bound, lambda(G)), G = g plus x joined to each u by beta(u),
    read off g's forest at no flow: the least c(R) + beta(R) over its
    live nodes R, and `bound`.  The forest must hold every supreme set
    of g with d < bound: truncated at `bound` or above, and rdem
    computed for `bound` or not at all.  None, to ask for a flow, unless
    every budget is >= 0 and every positive one lies on a terminal.

    lambda(G) is the least d_g(Y) + beta(Y) over the Steiner sets Y of
    g.  An inclusion-minimal minimizer Y is extreme in g: a Steiner
    subset has a larger sum and no larger beta, so a larger d_g.  The
    supreme set S of Y's projection has d_g(S) <= d_g(Y), and beta(S) =
    beta(Y) when beta lies on terminals, so S minimizes too, and it is
    a node of the forest when lambda(G) < bound (Frank, SIAM J. Discrete
    Math. 5, 1992).  Every node is a Steiner set of g, so no node reads
    below lambda(G).  Off the terminals beta(S) may differ from
    beta(Y), and the read can miss lambda(G)."""
    if any(w < 0 or (w and u not in g.terminals) for u, w in beta.items()):
        return None
    live = [forest.nodes[i] for i in forest.live()]
    return min([bound] + [nd.c + sum(w for u, w in beta.items()
                                     if u in nd.terminals) for nd in live])


def build_H(state: DegExternalState, path: HeavyPath
            ) -> tuple[flow.FlowNetwork, dict]:
    """Directed helper network for one heavy path (bottom node R1 up to
    Rk), following the six construction steps; contraction is realized
    by node merging."""
    g, f = state.g, state.forest
    rs = path.nodes[::-1]
    rk = rs[-1]
    mu = f.nodes[rk].mu_tilde
    if mu is None:
        raise RuntimeError(f"node {rk} lost its vertex set")

    # Vertex blocks: block i is the terminal layer R_i \ R_{i-1}, then one
    # per uncontracted vertex of mu, then the sink: x merged with every
    # vertex outside mu, which `comp` leaves out.
    comp: dict[int, int] = {}
    prev: frozenset[int] = frozenset()
    for i, r in enumerate(rs):
        layer = f.nodes[r].terminals - prev
        if not layer:
            raise RuntimeError("heavy path layers must strictly grow")
        comp.update(dict.fromkeys(layer, i))
        prev = f.nodes[r].terminals
    next_id = len(rs)
    for u in sorted(mu):
        if u not in comp:
            comp[u] = next_id
            next_id += 1
    sink, y = next_id, next_id + 1

    arcs: list[tuple[int, int, Optional[int]]] = []
    for (u, v, w) in g.edges:
        cu, cv = comp.get(u, sink), comp.get(v, sink)
        if cu != cv:
            arcs.append((cu, cv, w))
            arcs.append((cv, cu, w))
    beta, wx = state.beta, state.wx
    for u, w in sorted(wx.items()):
        if w > 0 and u in comp:
            arcs.append((comp[u], sink, w))
            arcs.append((sink, comp[u], w))
    # beta >= 0 (`check_feasibility` refuses a negative budget, and x's
    # star is positive), so only a vertex of wx can be overdrawn.
    over = [u for u, w in wx.items() if beta.get(u, 0) < w]
    if over:
        raise RuntimeError(f"budget exceeded at {min(over)} before processing")
    uy_arcs: dict[int, int] = {}    # arc index -> original vertex
    for u in sorted(comp):
        cap = beta.get(u, 0) - wx.get(u, 0)
        if cap > 0:
            uy_arcs[len(arcs)] = u
            arcs.append((comp[u], y, cap))
    for i in range(len(rs) - 1):
        arcs.append((i + 1, i, None))

    # The path's demand, rdem(Rk) minus the rdem hanging off the path, is
    # the sum of its nodes' excess, and the sum from R_i down is the
    # demand below R_i; no negative excess keeps those nonnegative and
    # growing upward.
    excess = [f.excess(r) for r in rs]
    if min(excess) < 0:
        raise RuntimeError("some node on the path has negative excess")
    delta = sum(excess)
    yx_index = len(arcs)
    arcs.append((y, sink, delta))

    net = flow.FlowNetwork(y + 1, arcs)
    meta = {"uy_arcs": uy_arcs, "yx_index": yx_index, "delta": delta,
            "sink": sink, "source": 0, "comp": comp, "y": y}
    return net, meta


def process_path(state: DegExternalState, path: HeavyPath) -> None:
    net, meta = build_H(state, path)
    res = flow.max_flow(net, (meta["source"],), (meta["sink"],))
    if res.value != state.tau:
        raise RuntimeError(
            f"path {path.id}: flow value {res.value} != tau {state.tau}")
    cap, residual = net.cap, res.residual
    yx = 2 * meta["yx_index"]
    if cap[yx] - residual[yx] != meta["delta"]:
        raise RuntimeError(f"path {path.id}: the (y, x) arc is not saturated")
    # Highest critical node on the path; there is one, since every path
    # ends at an L2 node or at a leaf, and leaves are critical.
    rm = next(r for r in path.nodes if r in state.hld.critical)
    mu_m = state.forest.nodes[rm].mu_tilde
    for idx, u in meta["uy_arcs"].items():
        fval = cap[2 * idx] - residual[2 * idx]
        if fval > 0:
            if mu_m is not None and u not in mu_m:
                raise RuntimeError(
                    "new weight must land inside the highest critical set")
            state.wx[u] = state.wx.get(u, 0) + fval
            state.slots.append(Slot(u, fval, path.anchor, (
                path.level != "lower", path.depth, u, path.id)))


def deg_external_augment(g: Graph, tau: int, beta: dict[int, int],
                         forest: LaminarForest) -> DegExternalState:
    """Process every heavy path bottom-up; the result is feasible and of
    optimal total value sum(rdem over roots).

    The forest must already have rdem computed for tau.  The paths are
    those of the two-level decomposition (upper paths ending at the
    highest critical nodes), so the slots it emits feed the chain
    phase, and afterwards the forest is L_high, on which that phase
    runs.  Raises InfeasibleBudgetError if beta cannot reach tau: read
    off the forest at no flow when every positive budget lies on a
    terminal (`star_target`: beta reaches tau iff every node has c(R) +
    beta(R) >= tau), else by `check_feasibility`'s literal sweep.
    """
    read = star_target(g, forest, beta, tau)
    if not (check_feasibility(g, tau, beta) if read is None
            else read >= tau):
        raise InfeasibleBudgetError("budget cannot reach the target")
    return _augment_feasible(g, tau, beta, forest)


def _augment_feasible(g: Graph, tau: int, beta: dict[int, int],
                      forest: LaminarForest) -> DegExternalState:
    """`deg_external_augment` for a beta known to reach tau, as x's own
    star does when tau is the connectivity of g plus x."""
    hld = HeavyPathDecomposition.build(forest)
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
    for i in forest.live():
        if i not in hld.lhigh:
            forest.delete_node(i)
    return state
