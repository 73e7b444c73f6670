"""End-to-end pipelines: augmentation to a target connectivity, and
complete splitting-off of an external vertex.

Both return the added edges plus a JSON-friendly report (phase totals,
optimum value, max-flow invocation count and, when the supreme forest
was built, what its recursion did under "supreme").  Splitting-off's
tau = lambda(G) is found from the forest of g = G - x, built truncated
at U, the least terminal degree in G: read off its nodes at no flow
when x's star lies on terminals, else by a sweep of c - 1 flows over
its c U-classes, not |T| - 1 (`splitoff_pipeline`).  At tau = 1 both
join the terminal components in a path; above it each builds the
forest with tau (U, splitting off) first, and its root gives
min(lambda(g), tau).  That is all splitting-off needs: it compares
lambda(g) with tau = lambda(G) <= U.  Augmentation reports lambda(g) as
"initial_connectivity": when it is >= tau, the root's flow tree (|T| - 1
flows) shows one tau-class, and one growing-sink sweep on g's plain
weights (`steiner_connectivity`, |T| - 1 more flows) makes it exact.
Below tau they differ only in the external phase that places the budget
and its chain slots: augmentation makes the optimal external solution
even, splitting-off places x's star with `deg_external`.  Both then
split that budget off with one step, `deg_chains.split_off`: the chain
phase and the +1 step.
"""

from __future__ import annotations

from collections import Counter
from itertools import accumulate
from typing import Callable

from . import flow
from .chains import budget_slots
from .deg_chains import split_off
from .deg_external import _augment_feasible, star_target
from .external import augmentation_lower_bound, external_augment, make_even
from .graph import EdgeAdditions, Graph, steiner_connectivity
from .supreme import recursion_report, supreme_forest


class RejectedInstanceError(ValueError):
    """Input violates a pipeline precondition (diagnostic in args)."""


def _components(g: Graph) -> list[list[int]]:
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for (u, v, _) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for s in range(g.n):
        if not seen[s]:
            seen[s] = True
            comp = [s]
            for u in comp:
                for v in adj[u]:
                    if not seen[v]:
                        seen[v] = True
                        comp.append(v)
            comps.append(comp)
    return comps


def _join_components(g: Graph, end: Callable[[list[int]], int]
                     ) -> EdgeAdditions:
    """The tau = 1 rule: unit edges from end(comp) to end(next comp) over
    the terminal components of g, in `_components`' order (least vertex)."""
    comps = [comp for comp in _components(g) if g.terminals.intersection(comp)]
    return EdgeAdditions(tuple((end(a), end(b), 1)
                               for a, b in zip(comps, comps[1:])))


def _cut_edge_neighbours(g: Graph, beta: dict[int, int]) -> list[int]:
    """For g = G - x and beta = x's edge weights (_remove_vertex): the
    neighbours u of x, in beta's order, whose x-u edges are a cut edge of
    G, i.e. u is the only neighbour of x in its component of g."""
    comp_of = {u: i for i, comp in enumerate(_components(g)) for u in comp}
    count = Counter(comp_of[u] for u in beta)
    return [u for u in beta if count[comp_of[u]] == 1]


def _pair_leftover(remaining: dict[int, int]) -> tuple[Counter, int]:
    """Pair up the units of `remaining` with no self-loop.  Returns the
    units per pair (u < v) and the units left unpaired, all at one vertex.

    Let top be a largest remainder (ties: smaller id) and rest the sum of
    the others.  If rem[top] >= rest, top pairs with every unit of the
    others and keeps rem[top] - rest.  Otherwise one unit stays at top if
    the total is odd, the units are laid out in blocks by vertex id, and
    unit i pairs with unit i + h, h = total // 2.  Every remainder w has
    2w <= 2 rem[top] < total, so w <= (total - 1) // 2 <= h, also for top
    after it gives up a unit; a block of at most h units never holds both
    unit i and unit i + h, so no pair is a self-loop.
    As i grows both blocks only move right, so the pairs are distinct and
    there are at most as many as budgeted vertices.
    """
    rem = {u: w for u, w in sorted(remaining.items()) if w > 0}
    pairs: Counter = Counter()
    if not rem:
        return pairs, 0
    top = max(rem, key=rem.__getitem__)
    total = sum(rem.values())
    rest = total - rem[top]
    if rem[top] >= rest:
        for u, w in rem.items():
            if u != top:
                pairs[min(u, top), max(u, top)] = w
        return pairs, rem[top] - rest
    h, dropped = divmod(total, 2)
    rem[top] -= dropped
    ids, ends = list(rem), list(accumulate(rem.values()))
    i = j = pos = 0
    while pos < h:  # merge the block ends of the two halves
        while ends[i] <= pos:
            i += 1
        while ends[j] <= pos + h:
            j += 1
        step = min(ends[i], ends[j] - h) - pos
        pairs[ids[i], ids[j]] += step
        pos += step
    return pairs, dropped


def augment_pipeline(g: Graph, tau: int, seed: int = 0
                     ) -> tuple[EdgeAdditions, dict]:
    """Minimum-weight edge additions raising Steiner connectivity to tau."""
    if tau < 1:
        raise RejectedInstanceError("target connectivity must be >= 1")
    calls_before = flow.max_flow_call_count()
    report: dict = {"tau": tau, "seed": seed, "phases": {}}

    if tau == 1:
        # A spanning tree over the terminal components is optimal.
        out = _join_components(g, lambda c: min(g.terminals.intersection(c)))
        report["phases"]["tree"] = report["optimum"] = out.total_weight
        report["total_weight"] = out.total_weight
        report["max_flow_calls"] = flow.max_flow_call_count() - calls_before
        return out, report

    stats: dict = {}
    forest = supreme_forest(g, stats=stats, tau=tau)
    conn = report["initial_connectivity"] = stats["connectivity"]
    if conn >= tau:  # conn = tau: the root is one tau-class
        report["initial_connectivity"] = steiner_connectivity(g)
        report.update({"total_weight": 0, "k": 0, "optimum": 0,
                       "max_flow_calls":
                       flow.max_flow_call_count() - calls_before})
        return EdgeAdditions(()), report

    report["supreme"] = recursion_report(stats)
    forest.compute_rdem(tau)
    sol = external_augment(forest, tau)
    report["k"] = sol.total_weight
    report["optimum"] = augmentation_lower_bound(sol)
    beta = make_even(sol).beta
    out = split_off(g, tau, forest, budget_slots(forest, beta), beta, seed,
                    stats["classes"], report)
    report["total_weight"] = out.total_weight
    report["max_flow_calls"] = flow.max_flow_call_count() - calls_before
    return out, report


def _remove_vertex(g: Graph, x: int) -> tuple[Graph, dict[int, int], int]:
    """For x the last vertex of g: g - x, derived unchecked from g
    (`Graph._derived`), x's star as neighbour -> weight, and U, the least
    weighted degree in g of a terminal, in one pass over the edges."""
    beta: dict[int, int] = {}
    deg = dict.fromkeys(g.terminals, 0)
    edges = []
    for e in g.edges:
        u, v, w = e
        if u == x or v == x:
            other = v if u == x else u
            beta[other] = beta.get(other, 0) + w
        else:
            edges.append(e)
        if u in deg:
            deg[u] += w
        if v in deg:
            deg[v] += w
    g_x = g._derived(g.n - 1, tuple(edges),
                     g.total_weight - sum(beta.values()))
    return g_x, beta, min(deg.values())


def splitoff_pipeline(g_with_x: Graph, x: int, seed: int = 0
                      ) -> tuple[EdgeAdditions, dict]:
    """Complete splitting-off at x: replace its star by d(x)/2 edges
    preserving the Steiner connectivity tau = lambda(G), G = g_with_x.

    tau comes from the forest of g = G - x that the split needs anyway,
    built truncated at U, the least terminal degree in G (an upper bound
    on tau).  When every neighbour of x is a terminal, tau = min(U,
    lambda(G)) is the least c(R) + beta(R) over its nodes, and U, with no
    flow and no network for G (`deg_external.star_target`).  Otherwise
    it is swept: g is a subgraph of G, so no Steiner cut of G below U
    separates one of g's U-classes, and the growing-sink sweep over them
    (`steiner_connectivity` with `groups`, each flow capped at the least
    value so far, the first at U) gives tau in c - 1 flows for c
    classes.  The U-forest serves every tau <= U (`supreme` module
    docstring); at U <= 1 none is built, and the sweep runs over the
    terminals."""
    if x != g_with_x.n - 1:
        raise RejectedInstanceError("external vertex must be the last id")
    if x in g_with_x.terminals:
        raise RejectedInstanceError("external vertex must be nonterminal")
    g, beta, least = _remove_vertex(g_with_x, x)
    dx = sum(beta.values())
    if dx == 0:
        return EdgeAdditions(()), {"total_weight": 0, "tau": None,
                                   "phases": {}, "max_flow_calls": 0}
    if dx % 2 == 1:
        raise RejectedInstanceError(f"degree of x is odd ({dx})")
    cut = _cut_edge_neighbours(g, beta)
    if cut:
        raise RejectedInstanceError(f"cut edge between x and {cut[0]}")

    calls_before = flow.max_flow_call_count()
    stats: dict = {}
    tau = None
    # Below 2 terminals steiner_connectivity raises, before any forest.
    if least > 1 and len(g.terminals) > 1:
        forest = supreme_forest(g, stats=stats, tau=least)
        tau = star_target(g, forest, beta, least)
    if tau is None:
        tau = steiner_connectivity(g_with_x, groups=stats.get("classes"),
                                   bound=least)
    report: dict = {"tau": tau, "seed": seed, "dx": dx,
                    "target_weight": dx // 2, "phases": {}}

    out = EdgeAdditions(())
    if tau == 1:
        # x reaches 2 or more budgeted vertices in each terminal component
        # (no cut edge to x; a component it missed would make tau 0).
        left = dict(beta)

        def end(comp: list[int]) -> int:
            u = min(v for v in comp if left.get(v, 0) > 0)
            left[u] -= 1
            return u
        out = _join_components(g, end).merged()
        if out.entries:
            report["phases"]["tree"] = out.total_weight
    elif tau > 1 and stats["connectivity"] < tau:  # U >= tau: forest built
        # lambda(g) < tau cannot hold at tau = 0.  The U-classes, finer
        # than the tau-classes when tau < U, serve every +1 check too.
        report["supreme"] = recursion_report(stats)
        forest.compute_rdem(tau)
        # beta is x's own star, so it reaches tau = lambda(g + x) and
        # deg_external_augment's feasibility check would always pass.
        state = _augment_feasible(g, tau, beta, forest)
        out = split_off(g, tau, forest, state.slots, beta, seed,
                        stats["classes"], report)

    deg = out.degrees()
    remaining = {u: w - deg[u] for u, w in beta.items()}
    over = [u for u, w in remaining.items() if w < 0]
    if over:
        raise RuntimeError(f"split edges exceed x's budget at {over[0]}")

    # g + out is tau-connected now, and added edges lower no cut, so any
    # pairing of the leftover budget without self-loops keeps it so.  A
    # vertex holding more than all others together keeps its excess: the
    # x-x units a complete splitting-off would drop as self-loops.
    pairs, dropped = _pair_leftover(remaining)
    if pairs:
        extra = EdgeAdditions(tuple((u, v, c) for (u, v), c in pairs.items()))
        out = out.combine(extra)
        report["phases"]["leftover"] = extra.total_weight
    if dropped:
        report["self_loops_dropped"] = dropped // 2

    report["total_weight"] = out.total_weight
    report["max_flow_calls"] = flow.max_flow_call_count() - calls_before
    if out.total_weight != dx // 2 - dropped // 2:
        raise RuntimeError(
            f"split weight {out.total_weight} != {dx // 2 - dropped // 2}")
    return out, report
