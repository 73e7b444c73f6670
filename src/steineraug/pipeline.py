"""End-to-end pipelines: augmentation to a target connectivity, and
complete splitting-off of an external vertex.

Both return the added edges plus a JSON-friendly report (phase totals,
optimum value, max-flow invocation count).
"""

from __future__ import annotations

import random
from typing import Optional

from . import flow
from .chains import run_chains
from .deg_chains import split_off_chains
from .deg_external import InfeasibleBudgetError, deg_external_augment
from .deg_matching import deg_augment_by_one
from .external import external_augment, make_even
from .graph import EdgeAdditions, Graph, add_edges, steiner_connectivity
from .matching import augment_by_one, build_K
from .supreme import supreme_forest


class RejectedInstanceError(ValueError):
    """Input violates a pipeline precondition (diagnostic in args)."""


def _terminal_components(g: Graph) -> list[list[int]]:
    adj: dict[int, list[int]] = {u: [] for u in range(g.n)}
    for (u, v, _) in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for s in range(g.n):
        if s in seen:
            continue
        comp = []
        stack = [s]
        seen.add(s)
        while stack:
            u = stack.pop()
            comp.append(u)
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        terms = sorted(set(comp) & g.terminals)
        if terms:
            comps.append(terms)
    return comps


def augment_pipeline(g: Graph, tau: int, seed: int = 0, base_case: int = 10
                     ) -> tuple[EdgeAdditions, dict]:
    """Minimum-weight edge additions raising Steiner connectivity to tau."""
    if tau < 1:
        raise RejectedInstanceError("target connectivity must be >= 1")
    calls_before = flow.max_flow_call_count()
    report: dict = {"tau": tau, "seed": seed, "phases": {}}

    if tau == 1:
        # A spanning tree over the terminal components is optimal.
        comps = _terminal_components(g)
        entries = tuple((comps[i][0], comps[i + 1][0], 1)
                        for i in range(len(comps) - 1))
        out = EdgeAdditions(entries)
        report["phases"]["tree"] = out.total_weight
        report["total_weight"] = out.total_weight
        report["max_flow_calls"] = flow.max_flow_call_count() - calls_before
        return out, report

    conn = steiner_connectivity(g)
    report["initial_connectivity"] = conn
    if conn >= tau:
        report.update({"total_weight": 0, "k": 0, "optimum": 0,
                       "max_flow_calls":
                       flow.max_flow_call_count() - calls_before})
        return EdgeAdditions(()), report

    forest = supreme_forest(g, seed=seed, base_case=base_case)
    forest.compute_rdem(tau)
    sol = external_augment(forest, tau)
    k = sol.total_weight
    report["k"] = k
    report["optimum"] = (k + 1) // 2
    even = make_even(sol)
    chain_adds, sched = run_chains(g, forest, even.beta, tau)
    report["phases"]["chains"] = chain_adds.total_weight
    g1 = add_edges(g, chain_adds)
    K = build_K(forest, tau)
    rng = random.Random(seed ^ 0x5DEECE66D)
    match_adds = augment_by_one(g1, K, tau, rng, beta=sched.remaining_beta())
    report["phases"]["matching"] = match_adds.total_weight
    out = chain_adds.combine(match_adds)
    report["total_weight"] = out.total_weight
    report["max_flow_calls"] = flow.max_flow_call_count() - calls_before
    return out, report


def _remove_vertex(g: Graph, x: int) -> tuple[Graph, dict[int, int]]:
    beta: dict[int, int] = {}
    edges = []
    for (u, v, w) in g.edges:
        if u == x or v == x:
            other = v if u == x else u
            beta[other] = beta.get(other, 0) + w
        else:
            edges.append((u, v, w))
    return Graph.build(g.n - 1, edges, sorted(g.terminals)), beta


def splitoff_pipeline(g_with_x: Graph, x: int, seed: int = 0,
                      base_case: int = 10, check: str = "terminal"
                      ) -> tuple[EdgeAdditions, dict]:
    """Complete splitting-off at x: replace its star by d(x)/2 edges
    preserving the Steiner connectivity."""
    if x != g_with_x.n - 1:
        raise RejectedInstanceError("external vertex must be the last id")
    if x in g_with_x.terminals:
        raise RejectedInstanceError("external vertex must be nonterminal")
    dx = g_with_x.degree(x)
    if dx == 0:
        return EdgeAdditions(()), {"total_weight": 0, "tau": None,
                                   "phases": {}, "max_flow_calls": 0}
    if dx % 2 == 1:
        raise RejectedInstanceError(f"degree of x is odd ({dx})")
    for (u, v), w in g_with_x.coalesced().items():
        if x not in (u, v):
            continue
        other = v if u == x else u
        rest = tuple(e for e in g_with_x.edges
                     if {e[0], e[1]} != {x, other})
        probe = Graph.build(g_with_x.n, rest, sorted(g_with_x.terminals))
        if flow.min_cut_value(probe, {x}, {other}) == 0:
            raise RejectedInstanceError(f"cut edge between x and {other}")

    calls_before = flow.max_flow_call_count()
    tau = steiner_connectivity(g_with_x)
    g, beta = _remove_vertex(g_with_x, x)
    report: dict = {"tau": tau, "seed": seed, "dx": dx,
                    "target_weight": dx // 2, "phases": {}}

    out = EdgeAdditions(())
    remaining = dict(beta)
    if steiner_connectivity(g) < tau:
        forest = supreme_forest(g, seed=seed, base_case=base_case)
        forest.compute_rdem(tau)
        try:
            state = deg_external_augment(g, tau, beta, forest)
        except InfeasibleBudgetError as exc:
            raise RejectedInstanceError(str(exc)) from exc
        chain_adds, sched = split_off_chains(g, state)
        report["phases"]["chains"] = chain_adds.total_weight
        g1 = add_edges(g, chain_adds)
        rem = sched.remaining_beta()
        # Budget never committed by the external phase stays available.
        for u, w in beta.items():
            spare = w - state.wx.get(u, 0)
            if spare:
                rem[u] = rem.get(u, 0) + spare
        K_prime = build_K(sched.forest, tau)
        if steiner_connectivity(g1) < tau:
            rng = random.Random(seed ^ 0x5DEECE66D)
            match_adds = deg_augment_by_one(g1, tau, rem, K_prime, rng,
                                            check=check)
            report["phases"]["matching"] = match_adds.total_weight
            for u in list(rem):
                rem[u] -= match_adds.degree(u)
                if rem[u] < 0:
                    raise RuntimeError(f"matching exceeded the budget at {u}")
            out = chain_adds.combine(match_adds)
        else:
            out = chain_adds
        remaining = {u: w for u, w in rem.items() if w > 0}

    # Pair up the leftover budget one unit at a time, always joining the
    # two largest remainders; these edges only add weight on top of an
    # already-tau-connected graph.
    leftover: list[tuple[int, int, int]] = []
    dropped = 0
    while True:
        live = sorted((u for u, w in remaining.items() if w > 0),
                      key=lambda u: (-remaining[u], u))
        if not live:
            break
        if len(live) == 1:
            # Forced self-loops carry no connectivity and are dropped.
            dropped += remaining[live[0]]
            remaining[live[0]] = 0
            break
        u, v = live[0], live[1]
        leftover.append((u, v, 1))
        remaining[u] -= 1
        remaining[v] -= 1
    if leftover:
        extra = EdgeAdditions(tuple(leftover)).merged()
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
