"""Three-phase computation of the supreme-set laminar forest.

Phase 1 (`perturb`) gives each edge a perturbed weight so that
distinct crossing-edge sets have distinct cut values.  Phase 2 finds a
laminar candidate family containing every supreme set of the perturbed
graph by divide and conquer over terminal bipartitions.  Every node
builds one equivalent-flow tree of its k terminals, k - 1 flows.  A
node of 5 or more splits them into two balanced halves by a cut
threshold read off that tree, at one more flow, and recurses on the
two contracted sides; a node of at most 4 (a base case) takes the
earliest min cut of every terminal bipartition, and reads those that
its tree's exact solves answer (below).  A base case's values are its
flows' values, since a min cut side's cut value is its flow's value; its
crossing repair cuts only the differences X - Y, each over the arcs of
its own vertices.  A recursion node is its terminals, its flow network,
its labels and its terminal-free vertices F (below).
The root has no labels: vertex v stands for {v}.  A contracted node's
labels are a list over its vertices, each kept vertex's original
vertex and one original vertex of each merged one, and a map from
each merged vertex to its original vertex set, so no node builds a set
per vertex.  The root's network is laid out in the pass that makes the
perturbed weights (`perturb`), and a contracted node's in the pass that
reads and coalesces its parent's arcs (`_contract`), so no weight map
is built.

A base case reads each minimal sink side off its solve's minimal
source side X, with no search: it is the node's vertices - X - F, F
the vertices whose component in the node's network holds no terminal.
The perturbation names each cut's crossing-edge set by its value (and
a node's arcs are sums of g's edges, each of positive weight), so all
min cuts of a solve cross the same arcs.  The maximal source side Y,
the vertices that reach no sink residually, is a min cut too, so no
arc joins Y - X to X or to the rest: Y - X is a union of components
holding no source and no sink.  In `_base_case` every terminal of the
node is a source or a sink of the bipartition solved, read or made, so
Y - X holds no terminal, and Y - X is F, as F reaches no source and no
sink.  The minimal sink side is the rest, V - Y (all min cuts come from
one max flow's residual graph: Picard and Queyranne, Math. Programming
Study 13, 1980).  F is found once per forest, in one pass from g's terminals
over the root's network, and `_contract` carries it: a part is a
minimal source side, holding no F vertex, its complement, holding all
of F, or a tau-class of terminals, so a part holds each component of F
whole or none of it; the kept F vertices stay in F, and a merged vertex
holds a terminal, so no F vertex merged into it stays in F.

A base case reads, at no flow, each bipartition that an exact solve of
its flow tree answers.  Take the tree's exact solve u -> cls[p], of
value below the limit and minimal source side X (with no limit every
class is one terminal).  A cut below the limit splits no class (below),
so X holds whole classes, and its terminals make a bipartition P | T - P
with u in P and cls[p] in T - P.  Every P-cut is then a u-cls[p] cut, so
lambda~(P, T - P) >= d~(X), and X is a P-cut: the min P-cuts are min
u-cls[p] cuts, each holding X, so X is the minimal source side, and the
minimal sink side is read as above.  So the base case's family, its mask
order, its crossing repair and its least value are those of the base
case that solves every bipartition.  The stopping rule counts flows.  A
node of k classes has k - 1 exact tree solves, so its base case makes
2^(k-1) - k flows when they answer distinct bipartitions (as on every
graph the tests run): none at 2 classes, 1 at 3 and 4 at 4.  A node of
4 classes that split would make 7, one split flow and 3 in each child
of 3 terminals, and contract twice.  At 5 classes both make 11 (children
of 3 and 4 terminals: 1 + 3 + 3 + 4), and the base case grows
exponentially beyond, so a node of 5 or more classes splits; its split
leaves at least 2 classes on each side, so both contracted children are
smaller.

Phase 3 builds the candidates' `LaminarForest` on the values of the
flows that found them, scanning no edge, and prunes it with three
post-order splicing passes, leaving exactly the supreme-set
projections of the original graph with their cut values and perturbed
vertex sets.  The forest is a function of the graph: nothing is drawn
at random.

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
target tau it gives min(lambda(g), tau) (below).

Given a target tau, phase 2 compares cuts only with high = tau*2^m
(d >= tau exactly when d~ > high), so each flow-tree flow stops at
H = high + 1 and the tree gives min(lambda~, H) for every pair
(`_flow_tree`).  Its H edges join the tau-classes, the terminals
pairwise tau-connected.  A node of one class has no Steiner cut below
tau and returns nothing (`pruned`); at the root its least edge is then
H, and H // 2^m = tau, so the root gives min(lambda(g), tau): a caller
that needs lambda(g) >= tau exactly sweeps g's plain weights
(`pipeline`).  The merged node, each class merged into one vertex, has
the node's cuts that keep every class whole.  It is built only to
split: a node of 5 or more classes splits on the tree with its H edges
contracted, an exact flow tree of the merged node.  A node of 2 to 4
classes is a base case over its classes on its own network, each
class one source or sink set, so each solve has the merged node's min
cuts, value and minimal sides, expanded; its tree's exact solves are
such solves, read at no flow (above).  The root's classes also serve
the +1 step (`matching`).  The forest after `compute_rdem(tau)` is the
same as without tau:
- a Steiner cut of d < tau separates no class, so the merged node keeps
  exactly those cuts, with their values; a witness that such a cut is
  not extreme is a Steiner subset of no larger value, kept too.  So
  the extreme sets below tau, and the supreme sets below tau (the
  largest extreme set of each projection, of least value), are the
  node's;
- a split covers each supreme set of a node by one of the same value
  in a child, so the candidates hold every supreme set below tau;
- postprocess pass 1 removes a node that a descendant matches or
  beats, so every node left above a set below tau is below tau too:
  the sets below tau keep their parents, no later pass removes one of
  them for a set of d >= tau, and `compute_rdem(tau)` deletes the rest.
So a forest truncated at any U >= tau serves tau: after
`compute_rdem(tau)` it is the forest truncated at tau after the same
call, as U's forest holds every set below tau with its parents and that
call deletes the sets of d >= tau.  Splitting-off truncates at the least
terminal degree U of G = g + x before it knows tau = lambda(G) <= U.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional

from . import flow
from .forest import LaminarForest
from .graph import Graph, is_steiner_cut, projection

if TYPE_CHECKING:
    # A node's labels (module docstring): None at the root.
    Labels = Optional[tuple[list[int], dict[int, frozenset[int]]]]


def perturb(g: Graph) -> flow.FlowNetwork:
    """g's perturbed network: one arc pair per coalesced edge e, of
    capacity w~(e) = 2^m*w(e) + 2^i, e the i-th of the m sorted coalesced
    edges, laid out as `flow.FlowNetwork.undirected` lays out g
    (`flow.coalesced_layout`), so each arc's plain capacity is its
    perturbed one >> m.

    A cut's offset, the sum of 2^i over the edges it crosses, names its
    crossing-edge set, so min cuts are unique; it lies in [0, 2^m - 1], so
    d(X) = d~(X) >> m and unequal cut values keep their order.

    2^m*w is made once per distinct weight w.  The weights sum to g's
    total weight W, so the capacities sum to 2^m*W + 2^m - 1 and
    inf = (W + 1)*2^m, with no sum over m-bit integers."""
    head, to, keys, acc = flow.coalesced_layout(g)
    m = len(keys)
    high = {w: w << m for w in set(acc.values())}
    caps = [high[acc[key]] | (1 << i) for i, key in enumerate(keys)]
    return flow.FlowNetwork.laid_out(g.n, head, to, caps,
                                     (g.total_weight + 1) << m)


def _contract(parts: list[Iterable[int]], terminals: frozenset[int],
              net: flow.FlowNetwork, labels: Labels, free: frozenset[int]
              ) -> tuple[list[int], frozenset[int], flow.FlowNetwork, Labels,
                         frozenset[int]]:
    """Merge each of the disjoint vertex sets `parts` of a recursion node
    into one vertex; the other vertices keep their order, and the merged
    ones follow in the order of `parts`.  Returns the vertex map (a list
    over the node's vertices) and the contracted node's terminals,
    network, labels and terminal-free vertices (module docstring: each
    part holds a terminal and no F vertex, or all of F).

    The network is laid out in the pass that reads the node's arcs off
    `net`, whose arc pairs join distinct vertex pairs (as `perturb` and
    this function lay them out): an arc inside a part would be a
    self-loop and is dropped, and arcs that now join the same pair, a
    merged vertex at one end at least, are summed into the first one
    seen, so the arcs keep the order in which they first appear.  The capacities sum to
    at most `net`'s, so `net.inf` serves the contracted network too."""
    merged = frozenset().union(*parts)
    keep = [u for u in range(net.n) if u not in merged]
    phi = [0] * net.n
    for i, u in enumerate(keep):
        phi[u] = i
    for i, K in enumerate(parts, len(keep)):
        for u in K:
            phi[u] = i
    first, n = len(keep), len(keep) + len(parts)   # first merged vertex
    head: list[list[int]] = [[] for _ in range(n)]
    to: list[int] = []
    caps: list[int] = []
    index: dict[int, int] = {}      # a*n + b -> arc pair, b merged
    for u, v, w in zip(net.to[1::2], net.to[::2], net.cap[::2]):
        a, b = phi[u], phi[v]
        if a > b:
            a, b = b, a
        if b >= first:
            if a == b:
                continue
            key = a * n + b
            if key in index:
                caps[index[key]] += w
                continue
            index[key] = len(caps)
        head[a].append(len(to))
        head[b].append(len(to) + 1)
        to += (b, a)
        # w itself, not 0 + w, which would copy a large perturbed weight.
        caps.append(w)
    expanded = [_expand(K, labels) for K in parts]
    if labels is None:
        ids, sets = keep, {}
    else:
        ids = [labels[0][u] for u in keep]
        sets = {phi[u]: S for u, S in labels[1].items() if phi[u] < first}
    ids += [min(S) for S in expanded]
    sets.update(zip(range(first, n), expanded))
    return (phi, frozenset(phi[t] for t in terminals),
            flow.FlowNetwork.laid_out(n, head, to, caps, net.inf),
            (ids, sets), frozenset(phi[u] for u in free if phi[u] < first))


def _crossing_repair(fam: dict[frozenset[int], int], cut_fn
                     ) -> dict[frozenset[int], int]:
    """Remove one set of each partially overlapping pair of the family
    `fam`, which maps each set to its cut value.

    By posi-modularity d(X-Y) <= d(X) or d(Y-X) <= d(Y); the condition
    certifies the removed set non-extreme (hence non-supreme), so every
    supreme set survives and the result is laminar.  A removal creates no
    crossing, so one pass over pairs i < j meets the same pairs in the
    same order as a rescan after each removal.  Only the differences
    X - Y are evaluated, by `cut_fn`, which maps a vertex set to its cut
    value.
    """
    sets = list(fam)
    removed = [False] * len(sets)
    for i, X in enumerate(sets):
        if removed[i]:
            continue
        for j in range(i + 1, len(sets)):
            if removed[j]:
                continue
            Y = sets[j]
            if X.isdisjoint(Y) or X <= Y or Y <= X:
                continue
            if cut_fn(X - Y) <= fam[X]:
                removed[i] = True
                break
            removed[j] = True
    return {X: fam[X] for X, r in zip(sets, removed) if not r}


def _base_case(net: flow.FlowNetwork, groups: list[list[int]],
               free: frozenset[int],
               solved: Iterable[tuple[frozenset[int], int]] = ()
               ) -> tuple[dict[frozenset[int], int], int]:
    """Earliest min cut of every ordered bipartition of the terminal
    `groups` (each whole on one side) + repair, in mask order, each with
    its flow's value, and the least value.  T1 -> T2 and T2 -> T1 share
    one solve, which gives both minimal sides (the sink side read off the
    source side and the node's terminal-free vertices `free`, module
    docstring), so the 2^k - 2 ordered bipartitions cost 2^(k-1) - 1
    solves.  Each of `solved`, the exact (minimal source side, value)
    solves of the node's flow tree, is the solve of the bipartition its
    side makes, at no flow (module docstring); a side that splits a
    group, or holds all of them or none, raises RuntimeError.  The
    recursion calls it below 5 groups, at most 4 flows; the tests use it
    at any k, with no `solved`, as the full-enumeration reference.  The
    repair reads each set's value off its flow (module docstring)."""
    k = len(groups)
    full = (1 << k) - 1
    sides: dict[int, tuple[frozenset[int], int]] = {}
    for X, value in solved:
        mask = sum(1 << i for i, K in enumerate(groups) if K[0] in X)
        if mask in (0, full) or any((t in X) != (K[0] in X)
                                    for K in groups for t in K[1:]):
            raise RuntimeError("a flow-tree side that is no bipartition of "
                               "the node's tau-classes")
        sides[mask] = X, value
        sides[full ^ mask] = _sink_side(net, X, free), value
    for mask in range(1, 1 << (k - 1)):
        if mask in sides:
            continue
        T1 = [t for i in range(k) if (mask >> i) & 1 for t in groups[i]]
        T2 = [t for i in range(k) if not (mask >> i) & 1 for t in groups[i]]
        res = flow.max_flow(net, T1, T2)
        X = res.source_side
        sides[mask] = X, res.value
        sides[full ^ mask] = _sink_side(net, X, free), res.value
    # Two masks differ on the groups, so never give the same side.
    fam = dict(sides[mask] for mask in range(1, full))
    head, to, cap = net.head, net.to, net.cap

    def cut_fn(D: frozenset[int]) -> int:
        return sum(cap[a] for v in D for a in head[v] if to[a] not in D)

    return _crossing_repair(fam, cut_fn), min(fam.values())


def _sink_side(net: flow.FlowNetwork, X: frozenset[int],
               free: frozenset[int]) -> frozenset[int]:
    """The minimal sink side of a base case's exact solve of minimal
    source side X, whose every terminal is a source or a sink: the node's
    vertices outside X and the terminal-free vertices `free` (module
    docstring)."""
    return frozenset(range(net.n)).difference(X, free)


def _terminal_free(net: flow.FlowNetwork, terminals: Iterable[int]
                   ) -> frozenset[int]:
    """The vertices whose component in `net` holds no terminal: those one
    search from the terminals does not reach."""
    seen = [False] * net.n
    for t in terminals:
        seen[t] = True
    queue = list(terminals)
    head, to = net.head, net.to
    for v in queue:
        for a in head[v]:
            u = to[a]
            if not seen[u]:
                seen[u] = True
                queue.append(u)
    if len(queue) == net.n:
        return frozenset()
    return frozenset(range(net.n)).difference(queue)


def _expand(X: Iterable[int], labels: Labels) -> frozenset[int]:
    """The original vertices of the node's vertex set X."""
    if labels is None:
        return frozenset(X)     # X itself if it is a frozenset
    ids, merged = labels
    out = frozenset(map(ids.__getitem__, X))
    sets = [S for v, S in merged.items() if v in X]
    return out.union(*sets) if sets else out


def _flow_tree(net: flow.FlowNetwork, ts: list[int],
               limit: Optional[int] = None
               ) -> tuple[list[tuple[int, int, int]], dict[int, list[int]],
                          list[tuple[frozenset[int], int]]]:
    """Gusfield's equivalent-flow tree over the sorted terminals `ts`, as
    one edge (lambda, u, parent) per later terminal u: lambda(s, v) is
    the least value on the tree path from s to v.  Each later terminal
    starts below ts[0]; u is cut from its tree parent, and the later
    terminals in the minimal source side that share that parent move
    below u.  |T| - 1 flows (Gusfield, SIAM J. Comput. 1990).

    With `limit`, a flow that reaches it stops and gives its edge the
    value `limit`, and nobody moves below u: a stopped terminal is a leaf
    below one whose flow did not stop.  The others see Gusfield's run
    over themselves, and lambda(u, p) >= limit makes min(lambda(u, v),
    limit) = min(lambda(p, v), limit) for every v, so the tree gives
    min(lambda, limit) for every pair.  The `limit` edges join the
    tau-classes, returned as a map from each head (ts[0] or a terminal
    whose flow did not stop) to its members, the head and the leaves
    stopped below it, in ts order.  The exact solves are returned too,
    in ts order, as (minimal source side, value) pairs.

    Each flow runs from u to p's known class: p and the leaves stopped
    below it so far, pairwise at least `limit` apart, so the BFS stops
    at the nearest of them.  A cut below `limit` separating u from p
    keeps the class on p's side, so the u-p and u-class solves have the
    same min cuts, value and minimal sides, and stop together."""
    parent = dict.fromkeys(ts[1:], ts[0])
    cls = {t: [t] for t in ts}
    edges: list[tuple[int, int, int]] = []
    solved: list[tuple[frozenset[int], int]] = []
    for i, u in enumerate(ts[1:], 1):
        p = parent[u]
        res = flow.max_flow(net, (u,), cls[p], limit)
        if res.source_side is None:
            value = limit
            cls[p] += cls.pop(u)
        else:
            value = res.value
            solved.append((res.source_side, value))
            for v in ts[i + 1:]:
                if parent[v] == p and v in res.source_side:
                    parent[v] = u
        edges.append((value, u, p))
    return edges, cls, solved


def _balanced_split(net: flow.FlowNetwork, ts: list[int],
                    tree: list[tuple[int, int, int]]) -> frozenset[int]:
    """Minimal source side of a min cut between the most balanced
    threshold set of the sorted terminals `ts` (at least 4) and the rest,
    one flow; balanced means >= 2 and >= |T|/16 terminals on each side.
    Each join of an edge (lambda, u, v) of the flow tree `tree`, in
    decreasing lambda, makes a threshold set {s : lambda(u, s) >= phi},
    phi the edge's value; a tie of the largest smaller side goes to the
    smaller least terminal, then to the first formed.  The perturbation
    makes positive tree values distinct.  Zero edges come last, after
    every positive one has joined each component's terminals, so a zero
    join makes a union of components; its min cut has value 0 (module
    docstring), and zero edges join in decreasing order of their smaller
    and then larger end.

    A balanced join always exists: walking back from the last join, which
    makes all k terminals, through the larger part of each join, every
    part has at least half the terminals of the next, so the first part
    with <= k - max(2, k/16) terminals has >= max(2, k/16)."""
    edges = sorted(((c, min(u, v), max(u, v)) for c, u, v in tree),
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


def _recurse(terminals: frozenset[int], net: flow.FlowNetwork,
             labels: Labels, free: frozenset[int], stats: dict, depth: int,
             limit: Optional[int]) -> tuple[dict[frozenset[int], int], int]:
    """Candidates of one recursion node (vertices 0..n-1, n = net.n) as
    sets of original vertices, each with its value in the node, which is
    its value d~ in g~, and the node's least Steiner cut value.  `free`
    holds the node's terminal-free vertices (module docstring).  With
    `limit` = H, the flow tree stops at H and shows the tau-classes: a
    node of one class returns none (`pruned`), one of 2 to 4 is a base
    case over its classes that reads its tree's exact solves, and one of
    5 or more merges them and splits; the module docstring says why that
    is exact."""
    stats["max_depth"] = max(stats["max_depth"], depth)
    layers = stats["layer_vertices"]
    layers[depth] = layers.get(depth, 0) + net.n

    ts = sorted(terminals)
    tree, classes, solved = _flow_tree(net, ts, limit)
    low = min(tree)[0]
    stats["capped"] += len(ts) - len(classes)
    if depth == 0:
        stats["classes"] = list(classes.values())
    if len(classes) == 1:
        stats["pruned"] += 1
        return {}, low
    stats["merged"] += len(ts) - len(classes)
    # The merged node's terminal order: the singleton classes, then the
    # merged ones in head order.
    groups = sorted(classes.values(), key=lambda K: len(K) > 1)
    # A node of at most 4 classes is a base case on its own network, each
    # class one source or sink set, which gives the merged node's cuts,
    # values and minimal sides, expanded; it reads its flow tree's exact
    # solves (module docstring).
    if len(groups) <= 4:
        counts = stats["base_cases"]
        counts[len(groups)] = counts.get(len(groups), 0) + 1
        fam, low = _base_case(net, groups, free, solved)
        return {_expand(X, labels): d for X, d in fam.items()}, low
    del solved  # the tree's sides: a split reads none of them
    if len(groups) < len(ts):
        phi, terminals, net, labels, free = _contract(
            [K for K in groups if len(K) > 1], terminals, net, labels, free)
        # Each class is merged whole, so the edges left are an exact flow
        # tree of the merged node.
        tree = [(c, phi[u], phi[p]) for c, u, p in tree if c != limit]
        ts = sorted(terminals)

    S1 = _balanced_split(net, ts, tree)
    S2 = frozenset(range(net.n)) - S1
    s2_orig = _expand(S2, labels)
    # Each child is laid out just before its recursion, off this node's
    # network, which this frame drops once the last child is laid out.
    node = _contract([S1], terminals, net, labels, free)[1:]
    F1 = _recurse(*node, stats, depth + 1, limit)[0]
    node = _contract([S2], terminals, net, labels, free)[1:]
    del net
    F2 = _recurse(*node, stats, depth + 1, limit)[0]
    # Merge: keep all of L1 (its t1-bearing sets expand to supersets of
    # S1, covering supreme X >= S1; its t1-free sets are subsets of S2,
    # covering supreme X inside S2) plus the t2-free part of L2 (subsets
    # of S1).  Sets of L2 containing t2 would partially overlap the
    # S1-supersets from L1, and every supreme set is covered without
    # them, so they are dropped.
    return F1 | {X: d for X, d in F2.items() if not s2_orig <= X}, low


def find_supreme_candidates(g: Graph, net: flow.FlowNetwork,
                            stats: Optional[dict] = None,
                            tau: Optional[int] = None
                            ) -> dict[frozenset[int], int]:
    """Laminar family of Steiner cuts containing all supreme sets of g~,
    or with `tau` all those of d < tau (the truncation of the module
    docstring), each with its value d~ in g's perturbed network `net`
    (`perturb`), whose m arc pairs give the scale 2^m.

    `stats` receives the recursion's `max_depth`, its vertex total per
    depth (`layer_vertices`), the base cases per terminal count
    (`base_cases`, keyed by class count), the nodes of one tau-class
    (`pruned`), the terminals merged away into tau-classes (`merged`),
    the flows stopped at their limit (`capped`), lambda(g), or with `tau`
    min(lambda(g), tau) (`connectivity`), and the root's tau-classes
    (`classes`).  Every node of 5 or more classes splits, terminals in
    several components included (module docstring)."""
    stats = {} if stats is None else stats
    stats.update({"max_depth": 0, "layer_vertices": {}, "base_cases": {},
                  "pruned": 0, "merged": 0, "capped": 0})
    scale = 1 << (len(net.to) // 2)
    limit = None if tau is None else tau * scale + 1
    fam, low = _recurse(g.terminals, net, None,
                        _terminal_free(net, g.terminals), stats, 0, limit)
    stats["connectivity"] = low // scale
    return {X: d for X, d in fam.items() if is_steiner_cut(g, X)}


def postprocess(candidates: dict[frozenset[int], int], g: Graph,
                m: int) -> LaminarForest:
    """Three post-order passes pruning the candidates' `LaminarForest`
    into the forest of supreme-set terminal projections of g.

    `candidates` maps Steiner cuts to their perturbed values d~, m being
    the number of perturbed edges, so d = d~ >> m (`perturb`).  The
    candidates form one tree, a set's parent being its smallest strict
    superset (a crossing family raises ValueError); a removed node is
    spliced out, its children moving to its parent.  Pass 1 removes a
    node when some child matches or beats its perturbed cut value; pass 2
    removes a node whose parent has the same terminal projection (after
    it, the family is exactly the supreme sets of g~); pass 3 repeats
    pass 1 with the original values, leaving projections whose original
    supreme set exists, with c(R) = d(mu(R)) = d(mu~(R)).  A node is
    visited after its whole subtree and before its ancestors, so its live
    children and parent are the same in any post-order.
    """
    f = LaminarForest.from_family((X, d, None) for X, d in candidates.items())
    nodes = f.nodes
    proj = {i: projection(g, nd.terminals) for i, nd in nodes.items()}
    for remove in (
            lambda i, nd: any(nodes[w].c <= nd.c for w in nd.children),
            lambda i, nd: nd.parent is not None and proj[nd.parent] == proj[i],
            lambda i, nd: any(nodes[w].c >> m <= nd.c >> m
                              for w in nd.children)):
        for i in f.postorder():
            if remove(i, nodes[i]):
                f.delete_node(i)
    return LaminarForest.from_family(
        (proj[i], nodes[i].c >> m, nodes[i].terminals) for i in f.live())


def supreme_forest(g: Graph, seed=None, stats: Optional[dict] = None,
                   tau: Optional[int] = None) -> LaminarForest:
    """Full pipeline: perturb, find candidates, postprocess.  `stats` is
    filled as by `find_supreme_candidates`.  With `tau` the recursion is
    truncated at tau: nodes with c >= tau may be missing, and the forest
    after `compute_rdem(t)`, any t <= tau, is the same."""
    # `seed` is ignored (the forest draws nothing); kept for old callers.
    if len(g.terminals) < 2:
        raise ValueError("need at least 2 terminals")
    net = perturb(g)
    stats = {} if stats is None else stats
    fam = find_supreme_candidates(g, net, stats=stats, tau=tau)
    return postprocess(fam, g, len(net.to) // 2)


def recursion_report(stats: dict) -> dict:
    """The JSON-friendly part of `stats` that the pipelines report."""
    return {"max_depth": stats["max_depth"],
            "max_layer_vertices": max(stats["layer_vertices"].values()),
            "base_cases": {str(k): c
                           for k, c in sorted(stats["base_cases"].items())},
            "pruned": stats["pruned"], "merged": stats["merged"],
            "capped": stats["capped"], "classes": len(stats["classes"])}
