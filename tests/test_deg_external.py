import copy
import dataclasses
import itertools
import random
from pathlib import Path

import pytest

from steineraug import deg_external, flow, oracle
from steineraug.cli import parse_graph_text
from steineraug.deg_external import (DegExternalState, InfeasibleBudgetError,
                                     build_H, check_feasibility,
                                     deg_external_augment, process_path)
from steineraug.external import external_augment, make_even
from steineraug.flow import FlowNetwork, max_flow
from steineraug.forest import HeavyPathDecomposition
from steineraug.graph import cut_value, star_graph, steiner_connectivity
from steineraug.pipeline import RejectedInstanceError, splitoff_pipeline
from steineraug.supreme import supreme_forest

from conftest import g_path, g_split, random_connected, tree_plus_2n
from h_network_reference import build_H as whole_graph_build_H

SPLITOFF_POOL = Path(__file__).resolve().parent.parent / "perfbench" / "splitoff"


def ready_forest(g, tau):
    f = supreme_forest(g)
    f.compute_rdem(tau)
    return f


def fresh_state(g, tau, beta):
    forest = ready_forest(g, tau)
    hld = HeavyPathDecomposition.build(forest)
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
            lam_before = max_flow(FlowNetwork.undirected(before_g), R,
                                  rest | {x}).value
        process_path(state, path)
        if rest:
            after_g, x = star_graph(g, dict(state.wx))
            # Min cut toward the rest of T grows by exactly Delta.
            assert max_flow(FlowNetwork.undirected(after_g), R,
                            rest | {x}).value == \
                lam_before + sum(state.forest.excess(r) for r in path.nodes)


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

    def short(*args):
        res = real(*args)
        return dataclasses.replace(res, value=res.value - 1)

    monkeypatch.setattr(flow, "max_flow", short)
    with pytest.raises(RuntimeError, match="flow value"):
        process_path(state, state.hld.paths[0])


def test_budget_exceeded_before_build_H_raises():
    # The guard on the remaining (u, y) capacity must trip, also under -O.
    state = fresh_state(g_path(), 3, {0: 2, 1: 0, 2: 2})
    state.wx[0] = 3
    with pytest.raises(RuntimeError, match="budget exceeded at 0"):
        build_H(state, state.hld.paths[0])


def test_deg_external_nonterminal_routing():
    # G_split at tau=4 with no budget on s: the weight must land on the
    # nonterminal vertices v1 (and t on the other side).
    g, beta = g_split()
    forest = ready_forest(g, 4)
    state = deg_external_augment(g, 4, beta, forest)
    assert state.wx == {1: 1, 3: 1}
    assert sum(state.wx.values()) == oracle.optimal_external_value(g, 4)
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
        forest = ready_forest(g, tau)
        k = external_augment(forest, tau).total_weight
        big = {u: 4 * tau for u in range(g.n)}
        forest2 = ready_forest(g, tau)
        state = deg_external_augment(g, tau, big, forest2)
        assert sum(state.wx.values()) == k
        seen += 1
    assert seen >= 20


def test_deg_external_hands_over_lhigh():
    """The external phase splices every node below an L2 node out of its
    forest, so the chain phase gets L_high, and every slot's anchor, an
    L2 node, stays live."""
    seen = spliced = 0
    for idx in range(40):
        g = random_connected(idx, n_max=9)
        tau = steiner_connectivity(g) + 1 + (idx % 3)
        if tau < 2:
            continue
        forest = ready_forest(g, tau)
        live_before = forest.live()
        state = deg_external_augment(g, tau, {u: 4 * tau for u in range(g.n)},
                                     forest)
        assert state.forest is forest
        assert forest.live() == sorted(state.hld.lhigh), idx
        assert {s.node for s in state.slots} <= state.hld.l2, idx
        seen += 1
        spliced += len(live_before) > len(state.hld.lhigh)
    assert seen >= 20 and spliced >= 5, (seen, spliced)


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
    forest = ready_forest(g, tau)
    k = external_augment(ready_forest(g, tau), tau).total_weight
    state = deg_external_augment(g, tau, {u: 4 * tau for u in range(g.n)},
                                 forest)
    assert sum(state.wx.values()) == k
    assert steiner_connectivity(star_graph(g, state.wx)[0]) >= tau


def _delta_for_reference(forest, hld, top):
    """A path's demand below `top` as it was once computed: rdem(top)
    minus the rdem of the outermost heavy-path heads strictly below it
    whose parent lies on top's path."""
    tops = {p.nodes[0] for p in hld.paths}
    sub, stack = set(), [top]
    while stack:
        u = stack.pop()
        sub.add(u)
        stack.extend(forest.nodes[u].children)
    below = sum(forest.nodes[w].rdem for w in tops if w in sub and w != top
                and hld.path_of[forest.nodes[w].parent] == hld.path_of[top])
    return forest.nodes[top].rdem - below


def _identity_corpus():
    for idx in range(400):
        g = random_connected(idx, n_max=12)
        conn = steiner_connectivity(g)
        full = supreme_forest(g)
        for plus in (1, 2, 3, 5, 8):
            yield copy.deepcopy(full), conn + plus
    for n in range(40, 201, 40):
        g = tree_plus_2n(n, n, max(4, n // 10))
        yield supreme_forest(g), steiner_connectivity(g) + 3


def test_path_demand_is_the_sum_of_excess_below():
    """build_H's demand below each path node, the sum of excess from the
    node down, equals the reference; the critical nodes are exactly those
    of positive excess."""
    nodes = 0
    for f, tau in _identity_corpus():
        f.compute_rdem(tau)
        hld = HeavyPathDecomposition.build(f)
        for path in hld.paths:
            for i, r in enumerate(path.nodes):
                assert _delta_for_reference(f, hld, r) == \
                    sum(f.excess(s) for s in path.nodes[i:])
                nodes += 1
        assert hld.critical == {i for i in f.live() if f.excess(i) > 0}
    assert nodes >= 5000, nodes


def test_negative_excess_on_a_path_raises():
    # The guard on the path's excess must trip, also under -O.
    g = random_connected(19)
    state = fresh_state(g, steiner_connectivity(g) + 2, {})
    path = next(p for p in state.hld.paths if len(p.nodes) >= 2)
    top, child = (state.forest.nodes[r] for r in path.nodes[:2])
    child.rdem = top.rdem + 1
    with pytest.raises(RuntimeError, match="negative excess"):
        build_H(state, path)


def _splitoff_stars():
    """The benchmark's 7 pool stars, then per random_connected(0..199)
    its even external star at lambda + 2 and four stars of 1-3 units on
    about 60% of its vertices, terminal or not, made even."""
    files = sorted(SPLITOFF_POOL.glob("*.txt"))
    assert len(files) == 7
    for path in files:
        g, _ = parse_graph_text(path.read_text())
        yield g, 0
    for idx in range(200):
        g = random_connected(idx)
        tau = steiner_connectivity(g) + 2
        forest = ready_forest(g, tau)
        beta = make_even(external_augment(forest, tau)).beta
        yield star_graph(g, beta)[0], idx
        rng = random.Random(idx)
        for _ in range(4):
            beta = {u: rng.randint(1, 3) for u in range(g.n)
                    if rng.random() < 0.6}
            if beta:
                if sum(beta.values()) % 2:
                    beta[next(iter(beta))] += 1
                yield star_graph(g, beta)[0], idx


def test_build_H_matches_the_whole_graph_layout(monkeypatch):
    """On every heavy path, build_H's network (vertex count, arcs in
    order) and meta equal those of the layout that walked all n vertices,
    `comp` compared on mu: only mu's vertices get blocks.  Every one of
    these networks has vertices outside mu, which read as the sink."""
    seen = []

    def compared(state, path):
        net, meta = build_H(state, path)
        ref_net, ref_meta = whole_graph_build_H(state, path)
        assert (net.n, net.arcs) == (ref_net.n, ref_net.arcs)
        mu = state.forest.nodes[path.nodes[0]].mu_tilde
        ref_meta["comp"] = {u: ref_meta["comp"][u] for u in mu}
        assert meta == ref_meta
        seen.append(len(mu) < state.g.n)
        return net, meta

    monkeypatch.setattr(deg_external, "build_H", compared)
    rejected = 0
    for gx, seed in _splitoff_stars():
        try:
            splitoff_pipeline(gx, gx.n - 1, seed=seed)
        except RejectedInstanceError:
            rejected += 1
    assert len(seen) == 1580 and all(seen), (len(seen), sum(seen))
    assert rejected == 46, rejected
