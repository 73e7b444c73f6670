import random

import pytest

from steineraug import matching
from steineraug.chains import budget_slots, run_chains
from steineraug.deg_matching import deg_augment_by_one
from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, add_edges, steiner_connectivity
from steineraug.matching import (MatchingRetryError, build_K,
                                 is_feasible_partial, match_groups)
from steineraug.supreme import supreme_forest

from conftest import g_cyc4, g_cycle, g_path, random_connected


def forest_for(g, tau):
    f = supreme_forest(g)
    f.compute_rdem(tau)
    return f


def test_build_K_cyc4():
    f = forest_for(g_cyc4(), 3)
    assert build_K(f, 3) == [frozenset({i}) for i in range(4)]
    # tau=4: before chains every root has demand 2, so K is empty.
    f4 = forest_for(g_cyc4(), 4)
    assert build_K(f4, 4) == []


def test_is_feasible_partial_examples():
    g = g_cyc4()
    K = [frozenset({i}) for i in range(4)]
    # Matching (v1,v2) leaves the cut {v1,v2} at value 2 even with the
    # star into the other groups.
    rest = [frozenset({2}), frozenset({3})]
    assert not is_feasible_partial(g, rest, [(0, 1)], 3)
    # Diagonal pairs work.
    assert is_feasible_partial(g, [frozenset({1}), frozenset({3})],
                               [(0, 2)], 3)
    # Empty matching with the full star is the external solution.
    assert is_feasible_partial(g, K, [], 3)


def test_augment_by_one_cyc4_tau3():
    g = g_cyc4()
    f = forest_for(g, 3)
    beta = make_even(external_augment(f, 3)).beta
    assert beta == {0: 1, 1: 1, 2: 1, 3: 1}
    adds = deg_augment_by_one(g, 3, beta, build_K(f, 3), random.Random(7))
    assert adds.total_weight == 2
    assert steiner_connectivity(add_edges(g, adds)) >= 3
    # Only the diagonals can appear.
    assert set(adds.entries) <= {(0, 2, 1), (1, 3, 1)}


def test_augment_by_one_cyc4_tau4_tail():
    g = g_cyc4()
    forest = forest_for(g, 4)
    beta = make_even(external_augment(forest, 4)).beta
    chain_adds, _ = run_chains(g, forest, budget_slots(forest, beta), 4)
    g1 = add_edges(g, chain_adds)
    K = build_K(forest, 4)
    assert K == [frozenset({0}), frozenset({3})]
    rem = {u: w - chain_adds.degree(u) for u, w in beta.items()}
    adds = deg_augment_by_one(g1, 4, rem, K, random.Random(0))
    assert adds.entries == ((0, 3, 1),)
    final = add_edges(g1, adds)
    assert steiner_connectivity(final) == 4
    # The result is the doubled cycle.
    assert final.coalesced() == {(0, 1): 2, (1, 2): 2, (2, 3): 2, (0, 3): 2}


def test_two_groups_forced_edge():
    g = g_path()
    f = forest_for(g, 3)
    # After one chain copy both roots have demand 1; here skip chains by
    # noting K already = {{0},{2}} at tau 2.
    K = [frozenset({0}), frozenset({2})]
    adds = deg_augment_by_one(g, 2, {0: 1, 2: 1}, K, random.Random(1))
    assert adds.entries == ((0, 2, 1),)


def test_empty_K():
    assert deg_augment_by_one(g_path(), 3, {}, [],
                              random.Random(0)).entries == ()


def test_matching_determinism():
    g = g_cyc4()
    f = forest_for(g, 3)
    K = build_K(f, 3)
    beta = make_even(external_augment(f, 3)).beta
    a = deg_augment_by_one(g, 3, beta, K, random.Random(42))
    b = deg_augment_by_one(g, 3, beta, K, random.Random(42))
    assert a.entries == b.entries


def test_matching_total_is_half_K_rounded_up():
    for idx in range(25):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 1
        if tau < 2:
            continue
        forest = forest_for(g, tau)
        beta = make_even(external_augment(forest, tau)).beta
        chain_adds, _ = run_chains(g, forest, budget_slots(forest, beta),
                                   tau)
        g1 = add_edges(g, chain_adds)
        K = build_K(forest, tau)
        rem = {u: w - chain_adds.degree(u) for u, w in beta.items()}
        adds = deg_augment_by_one(g1, tau, rem, K, random.Random(idx))
        assert adds.total_weight == (len(K) + 1) // 2
        assert steiner_connectivity(add_edges(g1, adds)) >= tau


class _RepeatingShuffle(random.Random):
    """Shuffles into a list that repeats its second entry, so a matching
    round retires an odd number of groups."""

    def shuffle(self, x):
        x[:] = x[:2] + x[1:-1]


def test_odd_number_of_groups_left_raises():
    # The guard on the final pair must trip, also under -O.
    g = random_connected(0, n_max=12)
    groups = [frozenset({v}) for v in range(8)]
    assert g.n >= 8
    with pytest.raises(RuntimeError, match="groups left"):
        match_groups(g, {k: k for k in groups}, 1, _RepeatingShuffle(0),
                     {v: 2 for v in range(8)})


def test_retry_budget_exhausted_raises(monkeypatch):
    # tau = 10 is out of reach of a 4-cycle plus unit edges, so every
    # feasibility check fails; with n = 4 the budget is 2 * 64 * 2 checks.
    checks = []

    def counted(*args):
        checks.append(args)
        return is_feasible_partial(*args)

    monkeypatch.setattr(matching, "is_feasible_partial", counted)
    groups = [frozenset({v}) for v in range(4)]
    with pytest.raises(MatchingRetryError, match="in 256 attempts"):
        match_groups(g_cyc4(), {k: k for k in groups}, 10, random.Random(0),
                     {v: 1 for v in range(4)})
    assert len(checks) == 256


def test_match_groups_spends_the_budget_in_place():
    groups = [frozenset({v}) for v in range(4)]
    budget = {0: 1, 1: 1, 2: 2, 3: 1, 5: 1}
    adds = match_groups(g_cyc4(), {k: k for k in groups}, 3,
                        random.Random(7), budget)
    assert set(adds.entries) <= {(0, 2, 1), (1, 3, 1)}
    assert budget == {0: 0, 1: 0, 2: 1, 3: 0, 5: 1}


def test_odd_groups_match_the_least_spare_unit_as_a_group():
    """Three groups of one unit each cannot pay for a second edge, so
    the least unit outside them, at 3, joins the matching as a group.
    On the 6-cycle with terminals 0, 2 and 4, only (0, 3), (2, 4) then
    reaches tau = 3; the unit at 5 is left."""
    g = Graph.build(6, g_cycle(6).edges, [0, 2, 4])
    groups = [frozenset({v}) for v in (0, 2, 4)]
    budget = {0: 1, 2: 1, 4: 1, 5: 1, 3: 1}
    adds = match_groups(g, {k: k for k in groups}, 3, random.Random(0),
                        budget)
    assert sorted(adds.entries) == [(0, 3, 1), (2, 4, 1)]
    assert budget == {0: 0, 2: 0, 4: 0, 5: 1, 3: 0}
    assert steiner_connectivity(add_edges(g, adds)) == 3


def test_no_spare_budget_outside_the_supreme_sets_raises():
    # The spare-unit guard must trip, also under -O: an odd number of
    # one-unit groups and no budget outside them.
    groups = [frozenset({v}) for v in (0, 2, 4)]
    with pytest.raises(RuntimeError,
                       match="no spare budget outside the supreme sets"):
        match_groups(g_cycle(6), {k: k for k in groups}, 3,
                     random.Random(0), {0: 1, 2: 1, 4: 1})


def test_budget_exhausted_inside_supreme_set_raises():
    # The surrogate guard must trip, also under -O: group {1}'s supreme
    # set holds no budget when its edge is committed.
    supreme = {frozenset({0}): frozenset({0}), frozenset({1}): frozenset({1})}
    with pytest.raises(RuntimeError,
                       match=r"budget exhausted inside supreme set of \[1\]"):
        match_groups(g_cyc4(), supreme, 3, random.Random(0), {0: 1})


def test_budget_overdrawn_raises():
    # The spending guard must trip, also under -O: two groups whose
    # supreme sets share the one vertex with budget both pick it.
    supreme = {frozenset({0}): frozenset({0, 2}),
               frozenset({1}): frozenset({1, 2})}
    budget = {2: 1}
    with pytest.raises(RuntimeError, match="budget overdrawn at 2"):
        match_groups(g_cyc4(), supreme, 3, random.Random(0), budget)
    assert budget == {2: -1}
