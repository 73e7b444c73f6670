import itertools

import pytest

from steineraug import flow, oracle
from steineraug.deg_external import (DegExternalState, InfeasibleBudgetError,
                                     build_H, check_feasibility,
                                     deg_external_augment, process_path)
from steineraug.external import external_augment
from steineraug.flow import min_cut_value
from steineraug.forest import HeavyPathDecomposition
from steineraug.graph import cut_value, star_graph, steiner_connectivity
from steineraug.supreme import supreme_forest

from conftest import g_path, g_split, random_connected


def ready_forest(g, tau, seed=1):
    f = supreme_forest(g, seed=seed)
    f.compute_rdem(tau)
    return f


def fresh_state(g, tau, beta, seed=1):
    forest = ready_forest(g, tau, seed)
    forest.mark_critical(tau)
    forest.compute_L2_Lhigh()
    hld = forest.heavy_light(stop_at_l2=True) if forest.live() else \
        HeavyPathDecomposition([], {})
    return DegExternalState(g, tau, dict(beta), forest, hld)


def test_check_feasibility_examples():
    g = g_path()
    assert check_feasibility(g, 3, {0: 2, 1: 0, 2: 2})
    assert not check_feasibility(g, 3, {0: 1, 1: 0, 2: 2})
    assert check_feasibility(g, 1, {})
    assert not check_feasibility(g, 1, {0: -1})


def test_build_H_path_fixture():
    g = g_path()
    state = fresh_state(g, 3, {0: 2, 1: 0, 2: 2})
    path = next(p for p in state.hld.paths
                if state.forest.nodes[p.nodes[-1]].terminals == frozenset({0}))
    net, meta = build_H(state, path)
    assert meta["delta"] == 2
    assert net.arcs[meta["yx_index"]] == (meta["y"], meta["sink"], 2)


def _delta_H(net, image):
    return sum(c for (a, b, c) in net.arcs
               if a in image and b not in image and c is not None)


def _h_cut_identity_check(g, state, path):
    """delta_H(S) = d(S) + beta(S) and delta_H(S|{y}) = d_prev(S) + Delta
    for every S subset of mu(R_k) whose projection is a path prefix."""
    net, meta = build_H(state, path)
    f = state.forest
    rs = list(reversed(path.nodes))            # bottom-up
    mu_k = f.nodes[rs[-1]].mu_tilde
    prev_graph = star_graph(
        g, {u: w for u, w in state.wx.items() if w > 0})[0] \
        if any(state.wx.values()) else g
    nonterm = sorted(mu_k - g.terminals)
    checked = 0
    for i in range(len(rs)):
        base_terms = set(f.nodes[rs[i]].terminals)
        for r in range(len(nonterm) + 1):
            for extra in itertools.combinations(nonterm, r):
                S = base_terms | set(extra)
                image = {meta["comp"][u] for u in S}
                if meta["sink"] in image:
                    continue
                lhs = _delta_H(net, image)
                beta_S = sum(state.beta.get(u, 0) for u in S)
                assert lhs == cut_value(g, S) + beta_S, (S, lhs)
                lhs_y = _delta_H(net, image | {meta["y"]})
                d_prev = cut_value(prev_graph, S)
                assert lhs_y == d_prev + meta["delta"], (S, lhs_y)
                checked += 1
    return checked


def test_H_cut_value_identities_path():
    g = g_path()
    state = fresh_state(g, 3, {0: 2, 1: 0, 2: 2})
    order = sorted(state.hld.paths, key=lambda p: (-p.depth, p.nodes[0]))
    total = 0
    for path in order:
        total += _h_cut_identity_check(g, state, path)
        process_path(state, path)
    assert total > 0


def test_H_cut_value_identities_split_family():
    g, _ = g_split()
    state = fresh_state(g, 5, {0: 0, 1: 2, 2: 2, 3: 2})
    order = sorted(state.hld.paths, key=lambda p: (-p.depth, p.nodes[0]))
    for path in order:
        _h_cut_identity_check(g, state, path)
        rk = path.nodes[0]
        R = state.forest.nodes[rk].terminals
        rest = g.terminals - R
        lam_before = None
        if rest:
            before_g, x = star_graph(g, dict(state.wx))
            # x pinned to the far side: the lemma speaks about cuts in V.
            lam_before = min_cut_value(before_g, R, rest | {x})
        process_path(state, path)
        if rest:
            after_g, x = star_graph(g, dict(state.wx))
            # Min cut toward the rest of T grows by exactly Delta.
            assert min_cut_value(after_g, R, rest | {x}) == \
                lam_before + state.deltas[path.id]


def test_process_paths_path_fixture():
    g = g_path()
    state = fresh_state(g, 3, {0: 2, 1: 0, 2: 2})
    order = sorted(state.hld.paths, key=lambda p: (-p.depth, p.nodes[0]))
    for path in order:
        process_path(state, path)
    assert state.wx == {0: 2, 2: 2}


def test_short_h_network_flow_raises(monkeypatch):
    # The guard on the H-network flow value must trip, also under -O.
    state = fresh_state(g_path(), 3, {0: 2, 1: 0, 2: 2})
    real = flow.max_flow

    def short(net):
        res = real(net)
        return flow.FlowResult(res.value - 1, res.flows, res.source_side)

    monkeypatch.setattr(flow, "max_flow", short)
    with pytest.raises(RuntimeError, match="flow value"):
        process_path(state, state.hld.paths[0])


def test_deg_external_nonterminal_routing():
    # G_split at tau=4 with no budget on s: the weight must land on the
    # nonterminal vertices v1 (and t on the other side).
    g, beta = g_split()
    forest = ready_forest(g, 4)
    state = deg_external_augment(g, 4, beta, forest)
    assert state.wx == {1: 1, 3: 1}
    assert state.solution().total_weight == oracle.optimal_external_value(g, 4)
    h = star_graph(g, state.wx)[0]
    assert steiner_connectivity(h) >= 4


def test_deg_external_matches_unconstrained_optimum():
    seen = 0
    for idx in range(30):
        g = random_connected(idx, n_max=9)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        forest = ready_forest(g, tau, seed=idx)
        k = external_augment(forest, tau).total_weight
        big = {u: 4 * tau for u in range(g.n)}
        forest2 = ready_forest(g, tau, seed=idx)
        state = deg_external_augment(g, tau, big, forest2)
        assert state.solution().total_weight == k
        seen += 1
    assert seen >= 20


def test_infeasible_budget_rejected():
    g = g_path()
    forest = ready_forest(g, 3)
    with pytest.raises(InfeasibleBudgetError):
        deg_external_augment(g, 3, {0: 1, 1: 0, 2: 2}, forest)


def test_nested_lower_heads_are_not_subtracted_twice():
    # Root {1,6,7} is an L2 node whose light child {6,7} has a light child
    # {7}; its path demand must subtract only the outermost heads below.
    g = random_connected(39)
    tau = steiner_connectivity(g) + 8
    forest = ready_forest(g, tau, seed=39)
    k = external_augment(ready_forest(g, tau, seed=39), tau).total_weight
    state = deg_external_augment(g, tau, {u: 4 * tau for u in range(g.n)},
                                 forest)
    assert state.solution().total_weight == k
    assert steiner_connectivity(star_graph(g, state.wx)[0]) >= tau
