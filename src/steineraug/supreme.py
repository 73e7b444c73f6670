"""Three-phase computation of the supreme-set laminar forest.

Phase 1 perturbs edge weights so that min cuts are unique with high
probability.  Phase 2 finds a laminar candidate family containing every
supreme set of the perturbed graph by divide and conquer over terminal
bipartitions: a node with more than `base_case` terminals splits them
into two balanced halves by a cut threshold and recurses on the two
contracted sides, and a node with at most `base_case` terminals (a base
case) takes the earliest min cut of every terminal bipartition, which
costs 2^(k-1) - 1 flows at k terminals.  A smaller `base_case` trades
those flows for recursion depth; the default, `BASE_CASE`, has the
fewest flows on the benchmark pools (README).  Phase 3 prunes the
candidates with three post-order traversals, leaving exactly the
supreme-set projections of the original graph together with their cut
values and perturbed vertex sets.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from typing import Mapping, Optional

from . import flow
from .forest import LaminarForest
from .graph import Graph, contract, is_steiner_cut, projection

PERTURBED_BOUND = 1 << 127
#: Default terminal count at or below which a recursion node enumerates.
BASE_CASE = 5
#: Largest terminal count a node is enumerated at in full when no
#: balanced bipartition is found, and so the largest `base_case` accepted.
FULL_ENUMERATION_LIMIT = 12


class BalanceError(RuntimeError):
    """Resampling failed to find a balanced terminal bipartition."""


@dataclass(frozen=True)
class PerturbedGraph:
    base: Graph
    weights: dict[tuple[int, int], int]  # coalesced edge -> perturbed weight
    N: int
    seed: int

    def cut_value(self, X) -> int:
        side = set(X)
        return sum(w for (u, v), w in self.weights.items()
                   if (u in side) != (v in side))


def perturb(g: Graph, seed: int) -> PerturbedGraph:
    """w~(e) = m*N*w(e) + r(e) with r(e) uniform in 1..N and N > sum w.

    Preserves the order of unequal cut values, and keeps extreme sets
    extreme; random offsets break ties so min cuts become unique whp.
    """
    coal = g.coalesced()
    total = sum(coal.values())
    N = total + 1
    m = max(len(coal), 1)
    rng = random.Random(seed)
    weights = {}
    for e in sorted(coal):
        weights[e] = m * N * coal[e] + rng.randint(1, N)
    if sum(weights.values()) >= PERTURBED_BOUND:
        raise OverflowError("perturbed weights exceed the 128-bit bound")
    return PerturbedGraph(g, weights, N, seed)


def _contract_weights(weights: Mapping[tuple[int, int], int],
                      phi: dict[int, int]) -> dict[tuple[int, int], int]:
    out: dict[tuple[int, int], int] = {}
    for (u, v), w in weights.items():
        a, b = phi[u], phi[v]
        if a == b:
            continue
        key = (a, b) if a < b else (b, a)
        out[key] = out.get(key, 0) + w
    return out


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


def _base_case(g: Graph, weights: Mapping[tuple[int, int], int]
               ) -> list[frozenset[int]]:
    """Earliest min cut of every ordered terminal bipartition + repair,
    in mask order.  T1 -> T2 and T2 -> T1 are one min-cut problem whose
    two minimal sides one max flow gives, so the 2^k - 2 ordered
    bipartitions cost 2^(k-1) - 1 flows, all on one network."""
    ts = sorted(g.terminals)
    k = len(ts)
    full = (1 << k) - 1
    net = flow.FlowNetwork.undirected(g, weights)
    sides: dict[int, frozenset[int]] = {}
    for mask in range(1, 1 << (k - 1)):
        T1 = [ts[i] for i in range(k) if (mask >> i) & 1]
        T2 = [ts[i] for i in range(k) if not (mask >> i) & 1]
        res = flow.max_flow(net, T1, T2)
        sides[mask], sides[full ^ mask] = res.source_side, res.sink_side
    fam = [sides[mask] for mask in range(1, full)]

    def cut_fn(M: int) -> int:
        return sum(w for (u, v), w in weights.items()
                   if ((M >> u) ^ (M >> v)) & 1)

    return _crossing_repair(fam, cut_fn)


def _expand(X, labels: list[frozenset[int]]) -> frozenset[int]:
    out: set[int] = set()
    for v in X:
        out |= labels[v]
    return frozenset(out)


def _balanced_split(g: Graph, weights: dict[tuple[int, int], int],
                    ts: list[int], rng: random.Random, n_all: int
                    ) -> Optional[frozenset[int]]:
    """Minimal source side of a min cut between a balanced terminal
    bipartition found by the cut threshold, or None if none is found
    within the retry cap.  Its flow network is freed on return, before
    the caller recurses."""
    cap = 64 * max(1, math.ceil(math.log2(max(n_all, 2))))
    net = flow.FlowNetwork.undirected(g, weights)
    lam_of: dict[int, dict[int, int]] = {}  # s -> lambda(s, u) in g
    for _ in range(cap):
        s = rng.choice(ts)
        t = rng.choice([u for u in ts if u != s])
        if s not in lam_of:  # naive threshold on terminals, one flow each
            lam_of[s] = {u: flow.max_flow(net, (s,), (u,)).value
                         for u in ts if u != s}
        lams = lam_of[s]
        phi = lams[t]
        cand1 = frozenset({s} | {u for u in ts if u != s and lams[u] >= phi})
        cand2 = frozenset(ts) - cand1
        if (len(cand1) >= 2 and len(cand2) >= 2
                and 16 * len(cand1) >= len(ts) and 16 * len(cand2) >= len(ts)):
            return flow.max_flow(net, cand1, cand2).source_side
    return None


def _recurse(g: Graph, weights: dict[tuple[int, int], int],
             labels: list[frozenset[int]], rng: random.Random,
             base_case: int, stats: dict, depth: int) -> set[frozenset[int]]:
    stats["max_depth"] = max(stats["max_depth"], depth)
    layers = stats["layer_vertices"]
    layers[depth] = layers.get(depth, 0) + g.n

    ts = sorted(g.terminals)
    # Below 4 terminals no bipartition leaves >= 2 on each side, which is
    # what makes both contracted sub-instances strictly smaller.
    if len(ts) <= max(base_case, 3):
        counts = stats["base_cases"]
        counts[len(ts)] = counts.get(len(ts), 0) + 1
        return {_expand(X, labels) for X in _base_case(g, weights)}

    S1 = _balanced_split(g, weights, ts, rng, stats["n"])
    if S1 is None:
        if len(ts) <= FULL_ENUMERATION_LIMIT:
            # Rare at this size; full enumeration is still affordable.
            stats["fallbacks"] += 1
            return {_expand(X, labels) for X in _base_case(g, weights)}
        raise BalanceError("balanced bipartition not found within the retry cap")
    S2 = frozenset(range(g.n)) - S1
    s2_orig = _expand(S2, labels)

    def sub_instance(K: frozenset[int]):
        h, phi = contract(g, K)
        w2 = _contract_weights(weights, phi)
        lab2: list[frozenset[int]] = [frozenset() for _ in range(h.n)]
        for v in range(g.n):
            lab2[phi[v]] = lab2[phi[v]] | labels[v]
        return h, w2, lab2

    # Each sub-instance is built only for its own call and freed after.
    F1 = _recurse(*sub_instance(S1), rng, base_case, stats, depth + 1)
    F2 = _recurse(*sub_instance(S2), rng, base_case, stats, depth + 1)

    # Merge: keep all of L1 (its t1-bearing sets expand to supersets of
    # S1, covering supreme X >= S1; its t1-free sets are subsets of S2,
    # covering supreme X inside S2) plus the t2-free part of L2 (subsets
    # of S1).  Sets of L2 containing t2 would partially overlap the
    # S1-supersets from L1, and every supreme set is covered without
    # them, so they are dropped.
    merged = set(F1)
    for X in F2:
        if not (s2_orig <= X):
            merged.add(X)
    return merged


def check_base_case(base_case: int) -> None:
    """Raise ValueError unless 2 <= base_case <= FULL_ENUMERATION_LIMIT:
    a base case of k terminals costs 2^(k-1) - 1 flows."""
    if not 2 <= base_case <= FULL_ENUMERATION_LIMIT:
        raise ValueError(f"base_case must be in 2..{FULL_ENUMERATION_LIMIT}, "
                         f"got {base_case}")


def find_supreme_candidates(pg: PerturbedGraph, base_case: int = BASE_CASE,
                            seed: int = 0, stats: Optional[dict] = None
                            ) -> list[frozenset[int]]:
    """Laminar family of Steiner cuts containing all supreme sets of g~.

    `stats` receives the recursion's `max_depth`, its vertex total per
    depth (`layer_vertices`), the base cases per terminal count
    (`base_cases`) and the nodes enumerated in full because no balanced
    bipartition was found (`fallbacks`)."""
    check_base_case(base_case)
    g = pg.base
    if stats is None:
        stats = {}
    stats.update({"max_depth": 0, "n": g.n, "layer_vertices": {},
                  "base_cases": {}, "fallbacks": 0})
    rng = random.Random(seed)
    labels = [frozenset({v}) for v in range(g.n)]
    fam = _recurse(g, dict(pg.weights), labels, rng, base_case, stats, 0)
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


def candidate_cut_values(sets: list[frozenset[int]], g: Graph,
                         weights: Optional[Mapping[tuple[int, int], int]] = None
                         ) -> list[int]:
    """Cut value d(X) of each candidate set, under `weights` if given."""
    coal = g.coalesced() if weights is None else weights
    out = []
    for X in sets:
        side = set(X)
        out.append(sum(w for (u, v), w in coal.items()
                       if (u in side) != (v in side)))
    return out


def postprocess(candidates: list[frozenset[int]], g: Graph,
                pg: PerturbedGraph) -> LaminarForest:
    """Three post-order traversals turning candidates into the forest of
    supreme-set terminal projections of g.

    Traversal 1 removes a node when some child matches or beats its
    perturbed cut value; traversal 2 removes a node whose parent has the
    same terminal projection (after it, the family is exactly the supreme
    sets of g~); traversal 3 repeats traversal 1 with the original
    weights, leaving projections whose original supreme set exists, with
    c(R) = d(mu(R)) = d(mu~(R)).
    """
    sets = sorted(set(candidates), key=lambda X: (len(X), sorted(X)))
    sets = [X for X in sets if is_steiner_cut(g, X)]

    live = list(range(len(sets)))
    values_tilde = candidate_cut_values(sets, g, pg.weights)
    values_orig = candidate_cut_values(sets, g)

    def run_traversal(live_idx: list[int], remove_fn) -> list[int]:
        cur = sorted(live_idx, key=lambda i: (len(sets[i]), sorted(sets[i])))
        parents = {}
        for pos, i in enumerate(cur):
            best = None
            for j in cur:
                if sets[i] < sets[j] and (best is None
                                          or len(sets[j]) < len(sets[best])):
                    best = j
            parents[i] = best
        children: dict[Optional[int], list[int]] = {}
        for i in cur:
            children.setdefault(parents[i], []).append(i)
        # Post-order = ascending size here (children are strictly smaller).
        alive = set(cur)
        kids = {i: list(children.get(i, [])) for i in cur}
        for i in cur:
            if remove_fn(i, kids.get(i, []), parents.get(i)):
                alive.discard(i)
                p = parents[i]
                if p is not None:
                    kids[p] = [x for x in kids[p] if x != i] + kids.get(i, [])
                for ch in kids.get(i, []):
                    parents[ch] = p
        return [i for i in cur if i in alive]

    # Traversal 1: perturbed values.
    live = run_traversal(live, lambda i, ch, p: any(
        values_tilde[w] <= values_tilde[i] for w in ch))
    # Traversal 2: duplicate projections collapse to the outermost set.
    proj = [projection(g, X) for X in sets]
    live = run_traversal(live, lambda i, ch, p: p is not None
                         and proj[p] == proj[i])
    # Traversal 3: original values.
    live = run_traversal(live, lambda i, ch, p: any(
        values_orig[w] <= values_orig[i] for w in ch))

    entries = [(proj[i], values_orig[i], sets[i]) for i in live]
    return LaminarForest.from_family(entries)


def supreme_forest(g: Graph, seed: int, base_case: int = BASE_CASE,
                   stats: Optional[dict] = None) -> LaminarForest:
    """Full pipeline: perturb, find candidates, postprocess.  `stats` is
    filled as by `find_supreme_candidates`."""
    if len(g.terminals) < 2:
        raise ValueError("need at least 2 terminals")
    pg = perturb(g, seed)
    if stats is None:
        stats = {}
    fam = find_supreme_candidates(pg, base_case=base_case, seed=seed ^ 0x9E3779B9,
                                  stats=stats)
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
            "fallbacks": stats["fallbacks"]}
