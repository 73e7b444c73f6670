"""Acceptance criteria: property-based checks with call-count budgets.

Each test number matches one criterion; tolerances are stated inline and
are exact unless noted.  The shared corpus is 200 deterministic random
connected graphs with n <= 10, weights <= 5 and >= 2 random terminals.
"""

import itertools
import math
import random
import time

import pytest

from steineraug import flow, oracle
from steineraug.chains import ChainScheduler, budget_slots, run_chains
from steineraug.deg_external import deg_external_augment
from steineraug.external import external_augment, make_even
from steineraug.graph import (EdgeAdditions, Graph, add_edges, star_graph,
                              steiner_connectivity)
from steineraug.matching import is_feasible_partial
from steineraug.pipeline import augment_pipeline, splitoff_pipeline
from steineraug.supreme import supreme_forest

from augmentation_oracle import (frank_greedy_external,
                                 optimal_augmentation_value)
from conftest import expiration_bruteforce, g_cycle, g_expo, random_connected

CORPUS_SIZE = 200
_corpus = None


def corpus():
    global _corpus
    if _corpus is None:
        _corpus = [random_connected(idx) for idx in range(CORPUS_SIZE)]
    return _corpus


def signature(f):
    return sorted((tuple(sorted(f.nodes[i].terminals)), f.nodes[i].c)
                  for i in f.live())


def test_01_supreme_oracle_equivalence():
    """>= 99% first-seed agreement with the brute-force supreme forest;
    every mismatch must pass on a fresh seed; total < 60 s."""
    t0 = time.monotonic()
    first_try = 0
    for idx, g in enumerate(corpus()):
        want = signature(oracle.supreme_sets_bruteforce(g))
        if signature(supreme_forest(g, seed=idx)) == want:
            first_try += 1
        else:
            assert signature(supreme_forest(g, seed=idx + 10_007)) == want, \
                f"instance {idx} failed on the reseed too"
    assert first_try >= math.ceil(0.99 * CORPUS_SIZE), first_try
    assert time.monotonic() - t0 < 60


def test_02_optimal_augmentation_value():
    """Pipeline weight == ceil(k/2) exactly for tau in conn+{1,2,3}."""
    for idx, g in enumerate(corpus()):
        conn = steiner_connectivity(g)
        for bump in (1, 2, 3):
            tau = conn + bump
            if tau < 2:
                continue
            k = oracle.optimal_external_value(g, tau)
            adds, report = augment_pipeline(g, tau, seed=idx)
            assert adds.total_weight == (k + 1) // 2, (idx, tau)
            ok, witness = oracle.verify_solution(g, tau, adds)
            assert ok, (idx, tau, witness)


def _chain_batches_no_new_extreme(g, sched, original):
    chain = sched.build_chain()
    while chain is not None:
        t = sched.expiration(chain)
        sched.apply_chain(chain, t)
        cur = add_edges(g, EdgeAdditions(tuple(sched.out)).merged())
        now = set(oracle.extreme_sets_bruteforce(cur).vertex_sets())
        assert now <= original, now - original
        chain = sched.build_chain()


def test_03_no_new_extreme_after_every_batch():
    """Both schedulers, batch by batch; zero violations."""
    for idx, g in enumerate(corpus()):
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        original = set(oracle.extreme_sets_bruteforce(g).vertex_sets())

        forest = supreme_forest(g, seed=idx)
        forest.compute_rdem(tau)
        beta = make_even(external_augment(forest, tau)).beta
        sched = ChainScheduler(g, forest, budget_slots(forest, dict(beta)),
                               tau)
        _chain_batches_no_new_extreme(g, sched, original)

        forest2 = supreme_forest(g, seed=idx)
        forest2.compute_rdem(tau)
        big = {u: 4 * tau for u in range(g.n)}
        state = deg_external_augment(g, tau, big, forest2)
        dsched = ChainScheduler(g, forest2, state.slots, tau)
        _chain_batches_no_new_extreme(g, dsched, original)


def test_04_splitoff_correctness():
    """>= 100 instances: total exactly d(x)/2, beta respected pointwise,
    connectivity preserved; zero tolerance."""
    done = 0
    for idx, g in enumerate(corpus()):
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 2)
        if conn < 1 or tau < 2:
            continue
        forest = supreme_forest(g, seed=idx)
        forest.compute_rdem(tau)
        beta = make_even(external_augment(forest, tau)).beta
        support = [u for u, w in beta.items() if w > 0]
        if len(support) < 2:
            continue
        gx, x = star_graph(g, beta)
        dx = gx.degree(x)
        adds, report = splitoff_pipeline(gx, x, seed=idx)
        assert adds.total_weight == dx // 2, idx
        assert "self_loops_dropped" not in report
        for u in range(g.n):
            assert adds.degree(u) <= beta.get(u, 0), (idx, u)
        assert steiner_connectivity(add_edges(g, adds)) >= \
            steiner_connectivity(gx), idx
        done += 1
    assert done >= 100, done


@pytest.mark.parametrize("n", [8, 16, 32])
def test_05_matching_success_probability(n):
    """Random phase matchings on C_n (tau=3) succeed with frequency
    >= 0.28 over 1000 trials (paper bound 1/3 minus sampling slack)."""
    g = g_cycle(n)
    groups = [frozenset({i}) for i in range(n)]
    rng = random.Random(1234 + n)
    p = len(groups) // 4
    hits = 0
    trials = 1000
    for _ in range(trials):
        order = list(range(len(groups)))
        rng.shuffle(order)
        picked = order[:2 * p]
        M = [(picked[2 * i], picked[2 * i + 1]) for i in range(p)]
        remaining = [groups[i] for i in range(len(groups))
                     if i not in set(picked)]
        if is_feasible_partial(g, remaining, M, 3):
            hits += 1
    assert hits / trials >= 0.28, hits / trials


def test_06_lazy_scheduler_differential():
    """10^3 scheduler runs: lazy c equals eager recomputation at every
    batch boundary and t_F equals the step simulation; zero mismatches."""
    runs = 0
    idx = 0
    while runs < 1000:
        g = random_connected(5000 + idx, n_max=8)
        idx += 1
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        deg_variant = idx % 2 == 0
        if deg_variant:
            forest = supreme_forest(g, seed=idx)
            forest.compute_rdem(tau)
            big = {u: 4 * tau for u in range(g.n)}
            state = deg_external_augment(g, tau, big, forest)
            sched = ChainScheduler(g, forest, state.slots, tau)
        else:
            forest = supreme_forest(g, seed=idx)
            forest.compute_rdem(tau)
            beta = make_even(external_augment(forest, tau)).beta
            sched = ChainScheduler(g, forest, budget_slots(forest, beta), tau)
        chain = sched.build_chain()
        while chain is not None:
            t = sched.expiration(chain)
            assert t == expiration_bruteforce(sched, chain), idx
            sched.apply_chain(chain, t)
            live_c = {i: sched.c(i) for i in sched.forest.live()}
            mu_of = {i: sched.forest.nodes[i].mu_tilde for i in live_c}
            cur = add_edges(g, EdgeAdditions(tuple(sched.out)).merged())
            for i, lazy in live_c.items():
                assert lazy == oracle.flow_free_cut_value(cur, mu_of[i]), idx
            chain = sched.build_chain()
        runs += 1
    assert runs == 1000


def test_07_deg_external_optimality():
    """Feasible instances: total == sum of root rdem == unconstrained
    optimum; the per-path flow-value == tau assertion runs inside."""
    done = 0
    for idx, g in enumerate(corpus()):
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 3)
        if tau < 2:
            continue
        rng = random.Random(777 + idx)
        if idx % 2 == 0:
            beta = {u: 4 * tau for u in range(g.n)}
        else:
            beta = {u: rng.randint(0, 2 * tau) for u in range(g.n)}
        forest = supreme_forest(g, seed=idx)
        forest.compute_rdem(tau)
        from steineraug.deg_external import (InfeasibleBudgetError,
                                             check_feasibility)
        if not check_feasibility(g, tau, beta):
            with pytest.raises(InfeasibleBudgetError):
                deg_external_augment(g, tau, beta, forest)
            continue
        state = deg_external_augment(g, tau, beta, forest)
        want = oracle.optimal_external_value(g, tau)
        assert sum(state.wx.values()) == want, idx
        done += 1
    assert done >= 100, done


@pytest.mark.parametrize("n", [50, 100, 200])
def test_08_call_count_budget(n):
    """Pipeline flow invocations <= 50 * n * ln(n)^3; recursion depth
    <= 25*ln|T|+5 (asserted inside supreme_forest); < 10 s wall."""
    rng = random.Random(31337 + n)
    edges = [(rng.randrange(v), v, rng.randint(1, 5))
             for v in range(1, n)]
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), rng.randint(1, 5)))
    terminals = rng.sample(range(n), n // 3)
    g = Graph.build(n, edges, terminals)
    conn = steiner_connectivity(g)
    t0 = time.monotonic()
    adds, report = augment_pipeline(g, conn + 1, seed=n)
    elapsed = time.monotonic() - t0
    budget = 50 * n * math.log(n) ** 3
    assert report["max_flow_calls"] <= budget, \
        (report["max_flow_calls"], budget)
    assert elapsed < 10, elapsed
    assert steiner_connectivity(add_edges(g, adds)) >= conn + 1 \
        if adds.entries else True


def test_09_frank_baseline():
    """Greedy external solution feasible and <= 2 * optimum + 1."""
    for idx, g in enumerate(corpus()):
        conn = steiner_connectivity(g)
        for bump in (1, 2, 3):
            tau = conn + bump
            if tau < 2:
                continue
            wx = frank_greedy_external(g, tau)
            h = star_graph(g, wx)[0] if wx else g
            assert steiner_connectivity(h) >= tau, (idx, tau)
            opt = optimal_augmentation_value(g, tau)
            assert sum(wx.values()) <= 2 * opt + 1, (idx, tau)


@pytest.mark.parametrize("n", [5, 6, 7])
def test_10_exponential_extreme_family(n):
    """G_expo(n): exactly 2^(n-2)+1 extreme sets; d({s}|S) = n+1-|S|."""
    fam = oracle.extreme_sets_bruteforce(g_expo(n))
    got = dict(fam.sets)
    assert len(got) == 2 ** (n - 2) + 1
    assert got[frozenset({n - 1})] == 3
    for r in range(n - 1):
        for sub in itertools.combinations(range(1, n - 1), r):
            s = frozenset({0}) | frozenset(sub)
            assert got[s] == n + 1 - len(sub)
