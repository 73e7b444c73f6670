import random

import pytest

from steineraug import flow
from steineraug.chains import run_chains
from steineraug.deg_external import deg_external_augment
from steineraug.deg_matching import deg_augment_by_one, find_surrogates
from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, add_edges, star_graph, steiner_connectivity
from steineraug.matching import build_K
from steineraug.oracle import verify_solution
from steineraug.pipeline import splitoff_pipeline
from steineraug.supreme import supreme_forest

from conftest import g_split, random_connected


def _least_vacant(mu, beta):
    """The surrogate `match_groups` attaches to: the least vertex of mu
    with budget left."""
    return min(v for v in mu if beta.get(v, 0) >= 1)


def test_find_surrogates_split_fixture():
    g, beta = g_split()
    info = find_surrogates(g, [frozenset({0}), frozenset({3})], beta)
    mu_s, mu_t = info[frozenset({0})], info[frozenset({3})]
    assert mu_s == frozenset({0, 1, 2})
    assert _least_vacant(mu_s, beta) == 1  # v1: lowest id with budget
    assert mu_t == frozenset({3})
    assert _least_vacant(mu_t, beta) == 3


def test_find_surrogates_on_terminal_budgets_takes_no_flow():
    """With vacant degree only on terminals, each group stands for its
    minimal isolating cut at no flow: the same vacant vertices and the
    same surrogate as the cut's."""
    rng = random.Random(23)
    for idx in range(60):
        g = random_connected(idx)
        ts = sorted(g.terminals)
        rng.shuffle(ts)
        cut = rng.randint(1, len(ts) - 1)
        groups = [frozenset(ts[:cut]), frozenset(ts[cut:])][:rng.randint(1, 2)]
        beta = {t: rng.randint(0, 2) for t in g.terminals}
        for k in groups:
            beta[min(k)] = 1
        before = flow.max_flow_call_count()
        info = find_surrogates(g, groups, beta)
        assert flow.max_flow_call_count() == before, idx
        rest = frozenset(g.terminals) - frozenset().union(*groups)
        cuts = flow.isolating_cuts(g, groups + ([rest] if rest else []))
        for k in groups:
            mu = info[k]
            assert {v for v in mu if beta.get(v)} == \
                {v for v in cuts[k] if beta.get(v)}, idx
            assert _least_vacant(mu, beta) == \
                min(v for v in cuts[k] if beta.get(v)), idx


def test_deg_augment_split_fixture():
    g, beta = g_split()
    forest = supreme_forest(g)
    forest.compute_rdem(4)
    state = deg_external_augment(g, 4, beta, forest)
    chain_adds, sched = run_chains(g, state.forest, state.slots, 4)
    K_prime = build_K(sched.forest, 4)
    assert sorted(K_prime, key=min) == [frozenset({0}), frozenset({3})]
    rem = {u: w - chain_adds.degree(u) for u, w in state.wx.items()}
    adds = deg_augment_by_one(g, 4, dict(rem), K_prime, random.Random(0))
    assert adds.entries == ((1, 3, 1),)
    assert steiner_connectivity(add_edges(g, adds)) == 4


def test_two_groups_forced_surrogate_edge():
    g, beta = g_split()
    adds = deg_augment_by_one(g, 4, beta,
                              [frozenset({0}), frozenset({3})],
                              random.Random(5))
    assert adds.entries == ((1, 3, 1),)


def test_deg_matching_respects_budgets_random():
    done = 0
    for idx in range(40):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 1
        if tau < 2:
            continue
        big = {u: 4 * tau for u in range(g.n)}
        forest = supreme_forest(g)
        forest.compute_rdem(tau)
        state = deg_external_augment(g, tau, big, forest)
        chain_adds, sched = run_chains(g, state.forest, state.slots, tau)
        g1 = add_edges(g, chain_adds) if chain_adds.entries else g
        K_prime = build_K(sched.forest, tau)
        if not K_prime or steiner_connectivity(g1) >= tau:
            continue
        rem = {u: w - chain_adds.degree(u) for u, w in state.wx.items()}
        adds = deg_augment_by_one(g1, tau, rem, K_prime, random.Random(idx))
        assert adds.total_weight == (len(K_prime) + 1) // 2
        for u in range(g.n):
            assert adds.degree(u) <= rem.get(u, 0)
        assert steiner_connectivity(add_edges(g1, adds)) >= tau
        done += 1
    assert done >= 15


def test_odd_groups_without_spare_inside_use_outside_budget():
    """Regression: the chain phase leaves an odd number of demand-1
    groups, each with one unit of budget inside its supreme set, and
    one spare unit outside all of them.  The odd edge must go there."""
    rng = random.Random(1)
    n = 48
    edges = [(rng.randrange(v), v, rng.randint(1, 3)) for v in range(1, n)]
    for _ in range(n):
        u, v = rng.sample(range(n), 2)
        edges.append((min(u, v), max(u, v), rng.randint(1, 3)))
    terminals = rng.sample(range(n), n // 3)
    g = Graph.build(n, edges, terminals)
    tau = steiner_connectivity(g) + 3
    forest = supreme_forest(g)
    forest.compute_rdem(tau)
    beta = make_even(external_augment(forest, tau)).beta
    gx, x = star_graph(g, beta)

    adds, report = splitoff_pipeline(gx, x, seed=1)
    assert adds.total_weight == gx.degree(x) // 2
    assert "self_loops_dropped" not in report
    for u in range(g.n):
        assert adds.degree(u) <= beta.get(u, 0), u
    assert steiner_connectivity(add_edges(g, adds)) >= \
        steiner_connectivity(gx)


def test_spare_odd_edge_is_matched_under_the_check():
    """Regression: the chain phase leaves three demand-1 groups {0}, {2}
    and {3}, each with one unit inside its supreme set, and a spare unit
    at 1 outside them.  An unchecked edge to it can leave the splitting
    (0, 1, 2), (2, 3, 2), whose cut {0, 1} is below tau = 3."""
    g = Graph.build(4, [(2, 0, 1), (1, 3, 1)], [0, 2, 3])
    beta = {0: 2, 2: 2, 1: 2, 3: 2}
    gx, x = star_graph(g, beta)
    adds, report = splitoff_pipeline(gx, x)
    assert report["tau"] == 3 and adds.total_weight == 4, report
    assert verify_solution(g, 3, adds, beta)[0], adds


@pytest.mark.parametrize("idx", [3455, 4578])
def test_splitoff_of_random_budgets_keeps_tau(idx):
    """Corpus stars with random budgets on which the unchecked odd edge
    returned a splitting below tau (9 and 10)."""
    g = random_connected(idx, n_max=10)
    rng = random.Random(idx)
    beta = {u: rng.randint(1, 3) for u in range(g.n) if rng.random() < 0.6}
    if sum(beta.values()) % 2:
        beta[next(iter(beta))] += 1
    adds, report = splitoff_pipeline(star_graph(g, beta)[0], g.n, seed=idx)
    assert verify_solution(g, report["tau"], adds, beta)[0], (adds, report)


def test_no_vacant_vertex_in_supreme_set_raises():
    # The surrogate guard must trip, also under -O: no budget anywhere.
    g, _ = g_split()
    with pytest.raises(RuntimeError, match="no vacant vertex"):
        find_surrogates(g, [frozenset({0}), frozenset({3})], {})
