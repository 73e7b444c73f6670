from steineraug import oracle
from steineraug.chains import ChainScheduler, budget_slots, run_chains
from steineraug.deg_external import deg_external_augment
from steineraug.external import external_augment
from steineraug.graph import EdgeAdditions, add_edges, steiner_connectivity
from steineraug.matching import build_K
from steineraug.supreme import supreme_forest

from conftest import expiration_bruteforce, g_split, random_connected


def deg_state(g, tau, beta):
    forest = supreme_forest(g)
    forest.compute_rdem(tau)
    return deg_external_augment(g, tau, beta, forest)


def test_split_fixture_nonterminal_endpoint(checked_expiration):
    # G_split family at tau=5 with no budget on s: the chain endpoint for
    # the root containing s must be a nonterminal (v1 or v2).
    g, _ = g_split()
    state = deg_state(g, 5, {0: 0, 1: 2, 2: 2, 3: 2})
    sched = ChainScheduler(g, state.forest, state.slots, 5)
    chain = sched.build_chain()
    assert chain is not None
    ends = [chain.ends[0].vertex, chain.ends[-1].vertex]
    assert sorted(ends)[0] in (1, 2)      # nonterminal side
    assert 3 in ends                      # terminal side
    adds = sched.run()
    assert adds.total_weight >= 1
    assert all(sched.dem(r) <= 1 for r in sched.forest.roots())


def test_no_demand_roots_empty_output():
    g, beta = g_split()
    state = deg_state(g, 4, beta)      # both roots have demand exactly 1
    adds, sched = run_chains(g, state.forest, state.slots, 4)
    assert adds.entries == ()
    assert len(build_K(sched.forest, 4)) == 2


def test_ledger_respects_budget_and_connectivity(checked_expiration):
    checked = 0
    for idx in range(40):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        big = {u: 4 * tau for u in range(g.n)}
        state = deg_state(g, tau, big)
        adds, sched = run_chains(g, state.forest, state.slots, tau)
        checked += 1
        for u in range(g.n):
            assert adds.degree(u) <= state.wx.get(u, 0)
        cur = add_edges(g, adds) if adds.entries else g
        assert steiner_connectivity(cur) >= tau - 1
    assert checked >= 25


def test_unconstrained_equivalent_budget_matches_chain_weight(
        checked_expiration):
    agree = 0
    for idx in range(30):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 2
        forest_u = supreme_forest(g)
        forest_u.compute_rdem(tau)
        beta = external_augment(forest_u, tau).beta
        if sum(beta.values()) == 0:
            continue
        chain_adds, _ = run_chains(g, forest_u, budget_slots(forest_u, beta),
                                   tau)

        forest_d = supreme_forest(g)
        forest_d.compute_rdem(tau)
        state = deg_external_augment(g, tau, dict(beta), forest_d)
        deg_adds, _ = run_chains(g, state.forest, state.slots, tau)
        assert deg_adds.total_weight == chain_adds.total_weight, idx
        agree += 1
    assert agree >= 20


def test_lazy_c_matches_eager_and_no_new_extreme():
    for idx in range(25):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 2
        big = {u: 4 * tau for u in range(g.n)}
        state = deg_state(g, tau, big)
        forest = state.forest
        original = set(oracle.extreme_sets_bruteforce(g).vertex_sets())
        sched = ChainScheduler(g, forest, state.slots, tau)
        while True:
            chain = sched.build_chain()
            if chain is None:
                break
            t = sched.expiration(chain)
            assert t == expiration_bruteforce(sched, chain)
            sched.apply_chain(chain, t)
            cur = add_edges(g, EdgeAdditions(tuple(sched.out)).merged())
            for i in sched.forest.live():
                mu = sched.forest.nodes[i].mu_tilde
                assert sched.c(i) == \
                    oracle.flow_free_cut_value(cur, mu)
            now = set(oracle.extreme_sets_bruteforce(cur).vertex_sets())
            assert now <= original
