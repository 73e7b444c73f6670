"""Three-phase computation of the supreme-set laminar forest.

Phase 1 perturbs edge weights so that distinct crossing-edge sets have
distinct cut values: every min cut is unique as an edge set.  Phase 2
finds a laminar candidate family containing every supreme set of the
perturbed graph by divide and conquer over terminal bipartitions: a node
with 4 or more terminals splits them into two balanced halves by a cut
threshold and recurses on the two contracted sides, and a node with at
most 3 terminals (a base case) takes the earliest min cut of every
terminal bipartition, at most 3 flows.  A split node reads its threshold
sets off one equivalent-flow tree of its k terminals, so it costs k - 1
flows for the tree and one for the split.  A recursion node is its
terminals, weight map and the original vertices (label) of each vertex.
Phase 3 prunes the candidate tree with three post-order splicing passes,
leaving exactly the supreme-set projections of the original graph
together with their cut values and perturbed vertex sets.  Nothing is
drawn at random: the forest is a function of the graph.

Terminals in several components split by the same rule: the flow
tree's zero edges join whole components, after every positive edge, and
the split's side S1 is then a union of components with d(S1) = 0.  An
extreme set X meeting both sides has d(X) = d(X & S1) + d(X - S1), and
the part holding a terminal is a Steiner cut of no larger value, so X is
not extreme: every extreme set lies in S1 or in S2, as at a positive
split, and the merge step holds unchanged.

The root of phase 2 gives lambda(g) at no extra flow: lambda~ // 2^m,
lambda~ its least flow-tree edge or its base case's least flow value
(exact, as a cut crossing an edge has offset in [1, 2^m - 1]).  Given a
target tau, phase 2 is truncated: a node whose own flow tree has every
edge above tau*2^m (at the root, lambda(g) >= tau) returns before its
split flow, and a child of a split node whose terminals the node's flow
tree proves pairwise tau-connected (`_proves_high`) is skipped, at no
flow.  Every candidate such a node or a node below it could return has
d >= tau, as contraction only raises cuts, and the pipelines delete
every such node (`compute_rdem`).  So the forest after `compute_rdem(tau)` is the same
with and without the truncation:
- a node's split depends on the node alone, so every node that is not
  skipped is the same node as without tau;
- crossing repair runs inside one base case, and a skipped child is
  skipped whole, so no set of it meets the other candidates there;
- the merge step only filters sets, one at a time;
- postprocess pass 1 removes every node of d >= tau that has a
  descendant of d < tau, so the sets of d < tau keep the same parents,
  and no later pass removes one of them for a set of d >= tau.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Mapping, Optional

from . import flow
from .forest import LaminarForest
from .graph import Graph, cut_value, is_steiner_cut, projection

@dataclass(frozen=True)
class PerturbedGraph:
    base: Graph
    weights: dict[tuple[int, int], int]  # coalesced edge -> perturbed weight
    scale: int  # 2^m: d(X) >= tau exactly when d~(X) > tau*scale

    def cut_value(self, X) -> int:
        return cut_value(self.base, X, self.weights)


def perturb(g: Graph) -> PerturbedGraph:
    """w~(e) = 2^m*w(e) + 2^i, e the i-th of the m sorted coalesced edges.

    A cut's offset, the sum of 2^i over the edges it crosses, names its
    crossing-edge set, so min cuts are unique; it lies in [1, 2^m - 1] on
    a cut of value >= 1, so 2^m is the `scale` of one unit of original
    weight and unequal cut values keep their order."""
    coal = g.coalesced()
    m = len(coal)
    weights = {e: (coal[e] << m) + (1 << i) for i, e in enumerate(sorted(coal))}
    return PerturbedGraph(g, weights, 1 << m)


def _contract(K: frozenset[int], terminals: frozenset[int],
              weights: Mapping[tuple[int, int], int],
              labels: list[frozenset[int]]
              ) -> tuple[frozenset[int], dict[tuple[int, int], int],
                         list[frozenset[int]]]:
    """Merge the vertices K of a recursion node into one, its last vertex;
    the others keep their order.  Returns the contracted node's terminals,
    weights (an edge inside K would be a self-loop and is dropped, and
    parallel edges are summed) and labels."""
    keep = [u for u in range(len(labels)) if u not in K]
    phi = {u: i for i, u in enumerate(keep)}
    phi.update(dict.fromkeys(K, len(keep)))
    out: dict[tuple[int, int], int] = {}
    for (u, v), w in weights.items():
        a, b = phi[u], phi[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        out[key] = out.get(key, 0) + w
    return (frozenset(phi[t] for t in terminals), out,
            [labels[u] for u in keep] + [_expand(K, labels)])


def _crossing_repair(sets: list[frozenset[int]], cut_fn) -> list[frozenset[int]]:
    """Remove one set of each partially overlapping pair.

    By posi-modularity d(X-Y) <= d(X) or d(Y-X) <= d(Y); the condition
    certifies the removed set non-extreme (hence non-supreme), so every
    supreme set survives and the result is laminar.  A removal creates no
    crossing, so one pass over pairs i < j meets the same pairs in the
    same order as a rescan after each removal.  `cut_fn` maps a vertex
    bitmask to its cut value and is memoized.
    """
    fam = list(dict.fromkeys(sets))
    masks = [sum(1 << v for v in X) for X in fam]
    cut = functools.cache(cut_fn)
    removed = [False] * len(fam)
    for i, mi in enumerate(masks):
        if removed[i]:
            continue
        for j in range(i + 1, len(fam)):
            if removed[j]:
                continue
            mj = masks[j]
            inter = mi & mj
            if not inter or inter == mi or inter == mj:
                continue
            if cut(mi ^ inter) <= cut(mi):
                removed[i] = True
                break
            removed[j] = True
    return [X for X, r in zip(fam, removed) if not r]


def _base_case(net: flow.FlowNetwork, ts: list[int]
               ) -> tuple[list[frozenset[int]], int]:
    """Earliest min cut of every ordered bipartition of the sorted
    terminals `ts` + repair, in mask order, and the least flow value.
    T1 -> T2 and T2 -> T1 share one flow, which gives both minimal sides,
    so the 2^k - 2 ordered bipartitions cost 2^(k-1) - 1 flows.  The
    recursion calls it below 4 terminals, at most 3 flows; the tests use
    it at any k as the full-enumeration reference."""
    k = len(ts)
    full = (1 << k) - 1
    sides: dict[int, frozenset[int]] = {}
    low = math.inf
    for mask in range(1, 1 << (k - 1)):
        T1 = [ts[i] for i in range(k) if (mask >> i) & 1]
        T2 = [ts[i] for i in range(k) if not (mask >> i) & 1]
        res = flow.max_flow(net, T1, T2)
        sides[mask], sides[full ^ mask] = res.source_side, res.sink_side
        low = min(low, res.value)
    fam = [sides[mask] for mask in range(1, full)]

    def cut_fn(M: int) -> int:
        return sum(w for (u, v, w) in net.arcs if ((M >> u) ^ (M >> v)) & 1)

    return _crossing_repair(fam, cut_fn), low


def _expand(X, labels: list[frozenset[int]]) -> frozenset[int]:
    return frozenset().union(*(labels[v] for v in X))


def _flow_tree(net: flow.FlowNetwork, ts: list[int]
               ) -> dict[int, list[tuple[int, int]]]:
    """Gusfield's equivalent-flow tree over the sorted terminals `ts`, as
    adjacency lists of (neighbour, lambda) pairs: lambda(s, u) is the
    least value on the tree path from s to u.  Each later terminal starts
    below ts[0]; u is cut from its tree parent, and the later terminals
    in the minimal source side that share that parent move below u.
    |T| - 1 flows (Gusfield, SIAM J. Comput. 1990)."""
    parent = dict.fromkeys(ts[1:], ts[0])
    adj: dict[int, list[tuple[int, int]]] = {t: [] for t in ts}
    for i, u in enumerate(ts[1:], 1):
        p = parent[u]
        res = flow.max_flow(net, (u,), (p,))
        for v in ts[i + 1:]:
            if parent[v] == p and v in res.source_side:
                parent[v] = u
        adj[u].append((p, res.value))
        adj[p].append((u, res.value))
    return adj


def _lambda_row(tree: dict[int, list[tuple[int, int]]], s: int
                ) -> dict[int, int]:
    """lambda(s, u) for every other terminal u: path minima from s."""
    row = {s: math.inf}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, c in tree[u]:
            if v not in row:
                row[v] = min(row[u], c)
                stack.append(v)
    del row[s]
    return row


def _balanced_split(net: flow.FlowNetwork, ts: list[int],
                    tree: dict[int, list[tuple[int, int]]]
                    ) -> frozenset[int]:
    """Minimal source side of a min cut between the most balanced
    threshold set of the sorted terminals `ts` (at least 4) and the rest,
    one flow; balanced means >= 2 and >= |T|/16 terminals on each side.
    Each join of an edge of the flow tree `tree`, in decreasing lambda,
    makes a threshold set {u : lambda(s, u) >= phi}, phi the edge's value;
    a tie of the largest smaller side goes to the smaller least terminal,
    then to the first formed.  The perturbation makes positive tree values
    distinct.  Zero edges come last, after every positive one has joined
    each component's terminals, so a zero join makes a union of
    components; its min cut has value 0 (module docstring).

    A balanced join always exists: walking back from the last join, which
    makes all k terminals, through the larger part of each join, every
    part has at least half the terminals of the next, so the first part
    with <= k - max(2, k/16) terminals has >= max(2, k/16)."""
    edges = sorted(((c, u, v) for u in ts for v, c in tree[u] if u < v),
                   reverse=True)
    if any(a[0] == b[0] > 0 for a, b in zip(edges, edges[1:])):
        raise RuntimeError("tied positive flow-tree values: cuts not unique")
    k, comp = len(ts), {t: [t] for t in ts}
    best, best_key = None, None
    for _, u, v in edges:
        big, small = sorted((comp[u], comp[v]), key=len, reverse=True)
        big += small
        comp.update(dict.fromkeys(small, big))
        side = min(len(big), k - len(big))
        key = (side, -min(big))
        if side >= 2 and 16 * side >= k and (best is None or key > best_key):
            best, best_key = frozenset(big), key
    return flow.max_flow(net, best, frozenset(ts) - best).source_side


def _proves_high(tree: dict[int, list[tuple[int, int]]], ts: list[int],
                 K: frozenset[int], high: int) -> bool:
    """Whether the flow tree of a node's terminals `ts` proves that every
    Steiner cut of the child contracting the vertices K exceeds `high`.

    A Steiner cut of the child separates two of its terminals outside K,
    or one of them from the contracted vertex, which holds every terminal
    t in K; so it separates two of A + {t}, A the terminals outside K.
    With a in A, lambda(u, v) >= min(lambda(u, a), lambda(a, v)), so one
    row of the tree suffices: every pair of A + {t} exceeds `high` when
    lambda(a, .) does on A and on some t in K.  The cut is one of the
    node too, as contraction only removes cuts."""
    a, *rest = [u for u in ts if u not in K]
    row = _lambda_row(tree, a)
    return (all(row[u] > high for u in rest)
            and any(row[t] > high for t in ts if t in K))


def _recurse(terminals: frozenset[int], weights: dict[tuple[int, int], int],
             labels: list[frozenset[int]], stats: dict, depth: int,
             high: Optional[int]) -> tuple[set[frozenset[int]], int]:
    """Candidates of one recursion node (vertices 0..n-1, n = len(labels))
    as sets of original vertices, and its least Steiner cut value; none
    (`pruned`) if its flow tree has every edge above the perturbed value
    `high`, and none from a child that tree proves above it."""
    n = len(labels)
    stats["max_depth"] = max(stats["max_depth"], depth)
    layers = stats["layer_vertices"]
    layers[depth] = layers.get(depth, 0) + n

    ts = sorted(terminals)
    net = flow.FlowNetwork(n, [(u, v, w) for (u, v), w in weights.items()],
                           False)
    # Below 4 terminals no bipartition leaves >= 2 on each side, which is
    # what makes both contracted sub-instances strictly smaller.
    if len(ts) <= 3:
        counts = stats["base_cases"]
        counts[len(ts)] = counts.get(len(ts), 0) + 1
        fam, low = _base_case(net, ts)
        return {_expand(X, labels) for X in fam}, low

    tree = _flow_tree(net, ts)
    low = min(c for u in ts for _, c in tree[u])
    if high is not None and low > high:
        stats["pruned"] += 1
        return set(), low
    S1 = _balanced_split(net, ts, tree)
    del net  # freed before the recursion, as is each sub-instance after it
    S2 = frozenset(range(n)) - S1
    s2_orig = _expand(S2, labels)

    def child(K: frozenset[int]) -> set[frozenset[int]]:
        if high is not None and _proves_high(tree, ts, K, high):
            stats["pruned"] += 1
            return set()
        return _recurse(*_contract(K, terminals, weights, labels),
                        stats, depth + 1, high)[0]

    F1, F2 = child(S1), child(S2)
    # Merge: keep all of L1 (its t1-bearing sets expand to supersets of
    # S1, covering supreme X >= S1; its t1-free sets are subsets of S2,
    # covering supreme X inside S2) plus the t2-free part of L2 (subsets
    # of S1).  Sets of L2 containing t2 would partially overlap the
    # S1-supersets from L1, and every supreme set is covered without
    # them, so they are dropped.
    return F1 | {X for X in F2 if not s2_orig <= X}, low


def find_supreme_candidates(pg: PerturbedGraph, stats: Optional[dict] = None,
                            tau: Optional[int] = None
                            ) -> list[frozenset[int]]:
    """Laminar family of Steiner cuts containing all supreme sets of g~,
    or with `tau` all those of d < tau (the truncation of the module
    docstring).

    `stats` receives the recursion's `max_depth`, its vertex total per
    depth (`layer_vertices`), the base cases per terminal count
    (`base_cases`), the nodes and children skipped as tau-connected
    (`pruned`) and lambda(g) (`connectivity`).  Every node of 4 or more
    terminals splits, terminals in several components included (module
    docstring)."""
    g = pg.base
    stats = {} if stats is None else stats
    stats.update({"max_depth": 0, "layer_vertices": {}, "base_cases": {},
                  "pruned": 0})
    labels = [frozenset({v}) for v in range(g.n)]
    high = None if tau is None else tau * pg.scale
    fam, low = _recurse(g.terminals, dict(pg.weights), labels, stats, 0, high)
    stats["connectivity"] = low // pg.scale
    out = sorted((X for X in fam if is_steiner_cut(g, X)),
                 key=lambda X: (len(X), sorted(X)))
    _assert_laminar(out)
    return out


def _assert_laminar(sets: list[frozenset[int]]) -> None:
    masks = [sum(1 << v for v in X) for X in sets]
    for i, mi in enumerate(masks):
        for j in range(i + 1, len(sets)):
            inter = mi & masks[j]
            if inter and inter != mi and inter != masks[j]:
                raise AssertionError(
                    f"candidate family not laminar: {sorted(sets[i])} vs "
                    f"{sorted(sets[j])}")


def postprocess(candidates: list[frozenset[int]], g: Graph,
                pg: PerturbedGraph) -> LaminarForest:
    """Three post-order passes turning candidates into the forest of
    supreme-set terminal projections of g.

    The candidates form one tree, a set's parent being its smallest strict
    superset; a removed node is spliced out, its children moving to its
    parent.  Pass 1 removes a node when some child matches or beats its
    perturbed cut value; pass 2 removes a node whose parent has the same
    terminal projection (after it, the family is exactly the supreme sets
    of g~); pass 3 repeats pass 1 with the original weights, leaving
    projections whose original supreme set exists, with
    c(R) = d(mu(R)) = d(mu~(R)).
    """
    # Ascending (len, sorted) order is a post-order, and a set's smallest
    # strict superset is the first one after it.
    sets = sorted({X for X in candidates if is_steiner_cut(g, X)},
                  key=lambda X: (len(X), sorted(X)))
    parent = [next((j for j in range(i + 1, len(sets)) if X < sets[j]), None)
              for i, X in enumerate(sets)]
    children: list[list[int]] = [[] for _ in sets]
    for i, p in enumerate(parent):
        if p is not None:
            children[p].append(i)
    live = [True] * len(sets)

    def prune(remove) -> None:
        for i in range(len(sets)):
            if live[i] and remove(i):
                live[i] = False
                p = parent[i]
                for ch in children[i]:
                    parent[ch] = p
                if p is not None:
                    children[p].remove(i)
                    children[p] += children[i]

    d_tilde = [cut_value(g, X, pg.weights) for X in sets]
    d = [cut_value(g, X) for X in sets]
    proj = [projection(g, X) for X in sets]
    prune(lambda i: any(d_tilde[w] <= d_tilde[i] for w in children[i]))
    prune(lambda i: parent[i] is not None and proj[parent[i]] == proj[i])
    prune(lambda i: any(d[w] <= d[i] for w in children[i]))
    return LaminarForest.from_family(
        (proj[i], d[i], sets[i]) for i in range(len(sets)) if live[i])


def supreme_forest(g: Graph, seed=None, stats: Optional[dict] = None,
                   tau: Optional[int] = None) -> LaminarForest:
    """Full pipeline: perturb, find candidates, postprocess.  `stats` is
    filled as by `find_supreme_candidates`.  With `tau` the recursion is
    truncated at tau: nodes with c >= tau may be missing, and the forest
    after `compute_rdem(tau)` is the same."""
    # `seed` is ignored (the forest draws nothing); kept for old callers.
    if len(g.terminals) < 2:
        raise ValueError("need at least 2 terminals")
    pg = perturb(g)
    stats = {} if stats is None else stats
    fam = find_supreme_candidates(pg, stats=stats, tau=tau)
    depth = stats.get("max_depth", 0)
    bound = 25 * math.log(max(len(g.terminals), 2)) + 5
    assert depth <= bound, f"recursion depth {depth} exceeds {bound}"
    for layer, total in stats["layer_vertices"].items():
        cap = 8 * g.n * max(1.0, math.log(max(g.n, 2)))
        assert total <= cap, f"layer {layer} vertex total {total} exceeds {cap}"
    return postprocess(fam, g, pg)


def recursion_report(stats: dict) -> dict:
    """The JSON-friendly part of `stats` that the pipelines report."""
    return {"max_depth": stats["max_depth"],
            "max_layer_vertices": max(stats["layer_vertices"].values()),
            "base_cases": {str(k): c
                           for k, c in sorted(stats["base_cases"].items())},
            "pruned": stats["pruned"]}
