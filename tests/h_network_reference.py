"""Reference for `deg_external.build_H` as it was when it walked the
whole graph: every vertex got a block in `comp` (the sink for those
outside mu), each layer's block id was kept in `block_of`, and the
budget guard and the (u, y) arcs ran over all n vertices.  The function
below is kept verbatim; the tests compare the layout over mu alone
against it, arc for arc.
"""

from __future__ import annotations

from typing import Optional

from steineraug import flow
from steineraug.deg_external import DegExternalState
from steineraug.forest import HeavyPath


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

    # Vertex blocks: one node per terminal layer R_i \ R_{i-1}, one per
    # uncontracted vertex of mu, one for everything else including x.
    comp: dict[int, int] = {}
    next_id = 0
    block_of: list[int] = []
    prev: frozenset[int] = frozenset()
    for r in rs:
        layer = f.nodes[r].terminals - prev
        if not layer:
            raise RuntimeError("heavy path layers must strictly grow")
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
        if cap < 0:
            raise RuntimeError(f"budget exceeded at {u} before processing")
        if cap > 0 and comp[u] != sink:
            uy_arcs[len(arcs)] = u
            arcs.append((comp[u], y, cap))
    for i in range(len(rs) - 1):
        arcs.append((block_of[i + 1], block_of[i], None))

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

    net = flow.FlowNetwork(next_id, arcs)
    meta = {"uy_arcs": uy_arcs, "yx_index": yx_index, "delta": delta,
            "sink": sink, "source": block_of[0], "comp": comp, "y": y}
    return net, meta
