import random

import pytest

from steineraug import oracle
from steineraug.chains import ChainScheduler, budget_slots, run_chains
from steineraug.external import external_augment, make_even
from steineraug.graph import EdgeAdditions, add_edges, steiner_connectivity
from steineraug.supreme import supreme_forest

from conftest import expiration_bruteforce, g_cyc4, g_path, random_connected


def prepared(g, tau):
    forest = supreme_forest(g)
    forest.compute_rdem(tau)
    beta = make_even(external_augment(forest, tau)).beta
    return forest, beta


def test_cyc4_tau4_chain_and_batch():
    g = g_cyc4()
    forest, beta = prepared(g, 4)
    sched = ChainScheduler(g, forest, budget_slots(forest, beta), 4)
    chain = sched.build_chain()
    # Ends are the two minimum-c roots (all tie at 2): lowest id first,
    # highest id last, middles ascending -> the chain runs v1..v4.
    terms = [min(forest.nodes[r].terminals) for r in chain.roots]
    assert terms == [0, 1, 2, 3]
    assert chain.edges() == [(0, 1), (1, 2), (2, 3)]
    # t1 = floor(2/2) = 1 at the middles, t2 = 1, t3 = inf.
    assert sched.expiration(chain) == 1
    assert expiration_bruteforce(sched, chain) == 1
    sched.apply_chain(chain, 1)
    assert [sched.c(r) for r in chain.roots] == [3, 4, 4, 3]
    assert {s.vertex: s.remaining for s in sched.slots if s.remaining} == \
        {0: 1, 3: 1}


def test_cyc4_tau4_run_to_demand_one(checked_expiration):
    g = g_cyc4()
    forest, beta = prepared(g, 4)
    adds, sched = run_chains(g, forest, budget_slots(forest, beta), 4)
    assert adds.entries == ((0, 1, 1), (1, 2, 1), (2, 3, 1))
    assert {s.vertex: s.remaining for s in sched.slots if s.remaining} == \
        {0: 1, 3: 1}
    roots = [r for r in forest.roots() if 4 - forest.nodes[r].c == 1]
    assert sorted(min(forest.nodes[r].terminals) for r in roots) == [0, 3]


def test_path_tau3_single_copy(checked_expiration):
    g = g_path()
    forest, beta = prepared(g, 3)
    adds, sched = run_chains(g, forest, budget_slots(forest, beta), 3)
    # One chain copy raises both c values to 2 (demand 1); the second
    # unit comes from the matching phase.
    assert adds.entries == ((0, 2, 1),)
    assert {s.vertex: s.remaining for s in sched.slots if s.remaining} == \
        {0: 1, 2: 1}


def test_apply_zero_copies_is_noop():
    g = g_cyc4()
    forest, beta = prepared(g, 4)
    sched = ChainScheduler(g, forest, budget_slots(forest, beta), 4)
    chain = sched.build_chain()
    before = [sched.c(r) for r in chain.roots]
    assert sched.apply_chain(chain, 0) == []
    assert [sched.c(r) for r in chain.roots] == before


def test_overlong_batch_raises():
    g = g_cyc4()
    forest, beta = prepared(g, 4)
    sched = ChainScheduler(g, forest, budget_slots(forest, beta), 4)
    chain = sched.build_chain()
    with pytest.raises(RuntimeError):
        sched.apply_chain(chain, sched.expiration(chain) + 1)


def test_all_demands_low_gives_empty():
    g = g_cyc4()
    forest, beta = prepared(g, 3)     # every root has demand exactly 1
    adds, _ = run_chains(g, forest, budget_slots(forest, beta), 3)
    assert adds.entries == ()


class EagerCheckedScheduler(ChainScheduler):
    """Recomputes every live c value from the actual graph after each
    batch (the eager reference for the c values kept on the forest)."""

    def apply_chain(self, chain, t):
        deleted = super().apply_chain(chain, t)
        cur = add_edges(self.g, EdgeAdditions(tuple(self.out)).merged())
        for i in self.forest.live():
            mu = self.forest.nodes[i].mu_tilde
            assert mu is not None
            want = oracle.flow_free_cut_value(cur, mu)
            assert self.c(i) == want, (i, self.c(i), want)
        return deleted


def test_lazy_c_matches_eager_recompute_small_corpus(checked_expiration):
    hits = 0
    for idx in range(40):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        forest, beta = prepared(g, tau)
        sched = EagerCheckedScheduler(g, forest, budget_slots(forest, beta),
                                      tau)
        sched.run()
        hits += 1
        # Afterwards: connectivity tau-1 and only demand <= 1 roots.
        cur = add_edges(g, EdgeAdditions(tuple(sched.out)).merged())
        assert steiner_connectivity(cur) >= tau - 1
        assert all(tau - forest.nodes[r].c <= 1 for r in forest.roots())
    assert hits >= 30


def test_no_new_extreme_after_each_batch():
    for idx in range(20):
        g = random_connected(idx, n_max=7)
        conn = steiner_connectivity(g)
        tau = conn + 2
        forest, beta = prepared(g, tau)
        original = set(oracle.extreme_sets_bruteforce(g).vertex_sets())
        sched = ChainScheduler(g, forest, budget_slots(forest, beta), tau)
        chain = sched.build_chain()
        while chain is not None:
            t = sched.expiration(chain)
            sched.apply_chain(chain, t)
            cur = add_edges(g, EdgeAdditions(tuple(sched.out)).merged())
            now = set(oracle.extreme_sets_bruteforce(cur).vertex_sets())
            assert now <= original, (idx, now - original)
            chain = sched.build_chain()
