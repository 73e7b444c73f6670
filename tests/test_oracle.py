import itertools
import random

import pytest

from steineraug import oracle
from steineraug.flow import FlowNetwork, max_flow
from steineraug.graph import (EdgeAdditions, Graph, add_edges, cut_value,
                              is_steiner_cut, least_steiner_cut,
                              steiner_connectivity)

from augmentation_oracle import (frank_greedy_external,
                                 optimal_augmentation_value)
from conftest import (g_cyc4, g_cycle, g_expo, g_path, random_connected,
                      sink_side)


def test_extreme_sets_path():
    fam = oracle.extreme_sets_bruteforce(g_path())
    assert fam.vertex_sets() == [frozenset({0}), frozenset({2})]
    assert all(d == 1 for (_, d) in fam.sets)


def test_extreme_sets_expo5():
    # {t} plus all 2^3 sets {s} | S for S subset of {v1,v2,v3};
    # d({s} | S) = 6 - |S|.
    fam = oracle.extreme_sets_bruteforce(g_expo(5))
    got = dict(fam.sets)
    assert len(got) == 9
    assert got[frozenset({4})] == 3
    for r in range(4):
        for sub in itertools.combinations([1, 2, 3], r):
            s = frozenset({0}) | frozenset(sub)
            assert got[s] == 6 - len(sub)


def test_singleton_terminal_extreme():
    g = g_cyc4()
    fam = oracle.extreme_sets_bruteforce(g)
    for i in range(4):
        assert frozenset({i}) in fam.vertex_sets()


def test_size_limit():
    g = Graph.build(14, [(i, i + 1, 1) for i in range(13)], [0, 13])
    with pytest.raises(ValueError):
        oracle.extreme_sets_bruteforce(g)


def test_supreme_sets_fixtures():
    f = oracle.supreme_sets_bruteforce(g_path())
    assert {(fz := f.nodes[r]).terminals: fz.c for r in f.roots()} == \
        {frozenset({0}): 1, frozenset({2}): 1}

    f = oracle.supreme_sets_bruteforce(g_expo(5))
    by_terms = {f.nodes[r].terminals: f.nodes[r] for r in f.roots()}
    assert by_terms[frozenset({0})].mu_tilde == frozenset({0, 1, 2, 3})
    assert by_terms[frozenset({0})].c == 3
    assert by_terms[frozenset({4})].mu_tilde == frozenset({4})
    assert by_terms[frozenset({4})].c == 3

    f = oracle.supreme_sets_bruteforce(g_cyc4())
    assert len(f.roots()) == 4
    assert all(f.nodes[r].c == 2 for r in f.roots())


def test_optimal_external_values():
    assert oracle.optimal_external_value(g_path(), 3) == 4
    assert oracle.optimal_external_value(g_cyc4(), 4) == 8
    assert oracle.optimal_external_value(g_cyc4(), 2) == 0   # already there


def test_optimal_augmentation_values():
    assert optimal_augmentation_value(g_path(), 3) == 2
    assert optimal_augmentation_value(g_cyc4(), 3) == 2
    assert optimal_augmentation_value(g_cyc4(), 4) == 4
    # Exhaustive search cross-check on the tiny fixtures.
    assert optimal_augmentation_value(g_path(), 3, exhaustive=True) == 2
    assert optimal_augmentation_value(g_cyc4(), 3, exhaustive=True) == 2
    with pytest.raises(ValueError):
        optimal_augmentation_value(g_path(), 1)


def test_frank_greedy_fixtures():
    assert frank_greedy_external(g_path(), 3) == {0: 2, 2: 2}
    assert frank_greedy_external(g_cyc4(), 2) == {}  # already there
    wx = frank_greedy_external(g_cyc4(), 3)
    assert wx == {0: 1, 1: 1, 2: 1, 3: 1}


def test_verify_solution():
    ok, _ = oracle.verify_solution(g_path(), 3, EdgeAdditions(((0, 2, 2),)))
    assert ok
    ok, witness = oracle.verify_solution(g_path(), 3, EdgeAdditions(()))
    assert not ok and witness == frozenset({0})
    ok, witness = oracle.verify_solution(
        g_path(), 3, EdgeAdditions(((0, 2, 2),)), beta={0: 1, 2: 2})
    assert not ok and witness == 0
    # One terminal: no Steiner cut, so nothing to violate.
    g = Graph.build(2, [(0, 1, 1)], [0])
    assert oracle.verify_solution(g, 3, EdgeAdditions(())) == (True, None)


def test_verify_budget_witness_is_the_least_overdrawn_vertex():
    """The budget witness is the least u whose degree in F exceeds
    beta.get(u, 0), a vertex of negative budget and degree 0 included,
    as a scan of F per vertex finds it."""
    rng = random.Random(5)
    g = g_cyc4()
    ok, witness = oracle.verify_solution(
        g, 2, EdgeAdditions(((0, 2, 2),)), beta={0: 2, 1: -1, 2: 2})
    assert not ok and witness == 1
    for _ in range(200):
        F = EdgeAdditions(tuple((u, v, rng.randint(1, 3)) for u, v in
                                (rng.sample(range(4), 2)
                                 for _ in range(rng.randint(0, 4)))))
        beta = {u: rng.randint(-1, 4) for u in range(4) if rng.random() < 0.8}
        over = [u for u in range(4) if F.degree(u) > beta.get(u, 0)]
        # The 4-cycle is 2-connected, so only a budget can fail.
        assert oracle.verify_solution(g, 2, F, beta) == \
            ((False, over[0]) if over else (True, None)), (F, beta)


def test_verify_solution_witness_is_a_failing_cut():
    """Each flow stops at tau, so a passing check reads no cut; a failing
    one returns a Steiner cut of g + F below tau as its witness."""
    failed = 0
    for idx in range(40):
        g = random_connected(idx, n_max=9)
        conn = steiner_connectivity(g)
        assert oracle.verify_solution(g, conn, EdgeAdditions(())) == \
            (True, None), idx
        ok, witness = oracle.verify_solution(g, conn + 1, EdgeAdditions(()))
        assert not ok and is_steiner_cut(g, witness), idx
        assert cut_value(g, witness) == conn, idx
        failed += 1
    assert failed == 40


def test_verify_solution_witness_is_the_minimal_sink_side():
    """On graphs whose min cuts tie (unit weights, cycles, CI's path
    0-1-2-3-4 of weights 2, 1, 1, 2), the witness is the minimal sink
    side of the first solve below tau, by a search of that solve's
    residual graph, not its maximal sink side nor the source side."""
    rng = random.Random(36)
    graphs = [Graph.build(5, [(0, 1, 2), (1, 2, 1), (2, 3, 1), (3, 4, 2)],
                          [0, 4])]
    graphs += [g_cycle(n) for n in range(3, 9)]
    graphs += [random_connected(idx, n_max=10, w_max=1) for idx in range(160)]
    tied = 0
    for g in graphs:
        conn = steiner_connectivity(g)
        F = EdgeAdditions(tuple((*rng.sample(range(g.n), 2), 1)
                                for _ in range(rng.randint(0, 2))))
        for tau in (conn + 1, conn + 2):
            ok, witness = oracle.verify_solution(g, tau, F)
            h = add_edges(g, F)
            res = least_steiner_cut(h, tau)
            if res.value >= tau:
                assert (ok, witness) == (True, None), g
                continue
            # The first solve below tau of the growing-sink sweep.
            net, ts = FlowNetwork.undirected(h), sorted(h.terminals)
            i = next(i for i in range(1, len(ts))
                     if max_flow(net, ts[i:i + 1], ts[:i]).value < tau)
            assert res.source_side == max_flow(net, ts[i:i + 1],
                                               ts[:i]).source_side, g
            want = sink_side(net, ts[:i], res)
            assert not ok and witness == want, g
            tied += want != frozenset(range(g.n)) - res.source_side
    assert oracle.verify_solution(graphs[0], 2, EdgeAdditions(())) == \
        (False, frozenset({0, 1}))
    assert tied > 40, tied


def test_every_nonextreme_cut_has_extreme_violator():
    for idx in range(15):
        g = random_connected(idx, n_max=7)
        fam = oracle.extreme_sets_bruteforce(g)
        extreme = set(fam.vertex_sets())
        for r in range(1, g.n):
            for sub in itertools.combinations(range(g.n), r):
                X = frozenset(sub)
                if not is_steiner_cut(g, X) or X in extreme:
                    continue
                d = cut_value(g, X)
                assert any(Y < X and cut_value(g, Y) <= d for Y in extreme), X


def test_crossing_extreme_union_is_extreme():
    for idx in range(15):
        g = random_connected(idx, n_max=7)
        extreme = set(oracle.extreme_sets_bruteforce(g).vertex_sets())
        for X in extreme:
            for Y in extreme:
                if X & Y and not (X <= Y or Y <= X):
                    if is_steiner_cut(g, X | Y):
                        assert (X | Y) in extreme


def test_supreme_laminar_and_mincut():
    for idx in range(15):
        g = random_connected(idx, n_max=7)
        f = oracle.supreme_sets_bruteforce(g)
        mus = [f.nodes[i].mu_tilde for i in f.live()]
        for X in mus:
            for Y in mus:
                assert not (X & Y and not (X <= Y or Y <= X)), (X, Y)
        # mu(R) is the earliest R-(T-R) min cut.
        for i in f.live():
            R = f.nodes[i].terminals
            rest = g.terminals - R
            if rest:
                assert f.nodes[i].mu_tilde == max_flow(
                    FlowNetwork.undirected(g), R, rest).source_side
