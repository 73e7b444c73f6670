import itertools

import pytest

from steineraug import oracle
from steineraug.graph import (EdgeAdditions, Graph, cut_value, is_steiner_cut,
                              steiner_connectivity)

from augmentation_oracle import (frank_greedy_external,
                                 optimal_augmentation_value)
from conftest import g_cyc4, g_expo, g_path, random_connected


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
    from steineraug.flow import earliest_min_cut
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
                assert f.nodes[i].mu_tilde == earliest_min_cut(g, R, rest)
