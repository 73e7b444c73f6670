import itertools

import pytest
from hypothesis import given, settings, strategies as st

from steineraug import flow
from steineraug.flow import (FlowNetwork, NoFiniteCutError, earliest_min_cut,
                             isolating_cuts, max_flow, min_cut_value)
from steineraug.graph import cut_value

from conftest import (g_cyc4, g_cycle, g_expo, g_path, g_split,
                      random_connected)


# Reference cut primitives with no production caller, checked below.

def min_cut_sides(g, A, B):
    """Minimal A side and minimal B side of the A-B min cuts."""
    res = max_flow(FlowNetwork.undirected(g), A, B)
    return res.source_side, res.sink_side


def latest_min_cut(g, A, B):
    """A-side-maximal A-B min cut: complement of the sink-reaching set."""
    return frozenset(range(g.n)) - min_cut_sides(g, A, B)[1]


def cut_threshold(g, s, phi):
    """ct(s, phi) = {s} union {t : lambda(s, t) >= phi}, one max flow per
    vertex."""
    if phi <= 0:
        return frozenset(range(g.n))
    return frozenset({s} | {t for t in range(g.n)
                            if t != s and min_cut_value(g, {s}, {t}) >= phi})


def test_max_flow_examples():
    assert min_cut_value(g_path(), {0}, {2}) == 1
    assert min_cut_value(g_cyc4(), {0}, {2}) == 2
    net = FlowNetwork(2, ((0, 1, 0),))
    assert max_flow(net, {0}, {1}).value == 0


def test_max_flow_flows_respect_capacities():
    net = FlowNetwork(4, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2),
                          (1, 2, 1)))
    res = max_flow(net, {0}, {3})
    assert res.value == 3
    for f, (u, v, c) in zip(res.flows, net.arcs):
        assert 0 <= f <= c


def test_infinite_capacity_and_no_finite_cut():
    net = FlowNetwork(3, ((0, 1, None), (1, 2, 5)))
    assert max_flow(net, {0}, {2}).value == 5
    bad = FlowNetwork(2, ((0, 1, None),))
    with pytest.raises(NoFiniteCutError):
        max_flow(bad, {0}, {1})
    # The direct arc is one phase ahead of the infinite path, so a solve
    # capped at 3 stops first; finishing it finds the infinite path.
    both = FlowNetwork(3, ((0, 1, 5), (0, 2, None), (2, 1, None)))
    stopped = max_flow(both, {0}, {1}, 3)
    assert stopped.value == 5 and stopped.source_side is None
    with pytest.raises(NoFiniteCutError):
        stopped.finish()


def test_network_validation():
    with pytest.raises(ValueError):
        max_flow(FlowNetwork(2, ()), {0}, {0})
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 1, -1),))


def test_call_counter():
    before = flow.max_flow_call_count()
    min_cut_value(g_path(), {0}, {2})
    assert flow.max_flow_call_count() == before + 1


def test_earliest_min_cut_examples():
    assert earliest_min_cut(g_path(), {0}, {2}) == frozenset({0})
    assert earliest_min_cut(g_expo(5), {0}, {4}) == frozenset({0, 1, 2, 3})


def test_latest_min_cut_examples():
    assert latest_min_cut(g_path(), {0}, {2}) == frozenset({0, 1})
    assert latest_min_cut(g_expo(5), {0}, {4}) == frozenset({0, 1, 2, 3})
    # All v1-v3 min cuts of C4 have value 2: {0},{0,1},{0,3},{0,1,3};
    # min cuts are union-closed, so the source-side-maximal one is {0,1,3}
    # (confirmed by the exhaustive bracket test below).
    assert latest_min_cut(g_cyc4(), {0}, {2}) == frozenset({0, 1, 3})


def test_earliest_subset_of_latest_and_both_minimum():
    for idx in range(30):
        g = random_connected(idx, n_max=8)
        ts = sorted(g.terminals)
        a, b = ts[0], ts[-1]
        lam = min_cut_value(g, {a}, {b})
        early = earliest_min_cut(g, {a}, {b})
        late = latest_min_cut(g, {a}, {b})
        assert early <= late
        assert cut_value(g, early) == lam
        assert cut_value(g, late) == lam
        # Exhaustive: early/late are the inclusion-extreme a-b min cuts.
        others = [u for u in range(g.n) if u not in (a, b)]
        for r in range(len(others) + 1):
            for sub in itertools.combinations(others, r):
                side = frozenset({a}) | frozenset(sub)
                if cut_value(g, side) == lam:
                    assert early <= side <= late


def test_min_cut_sides_match_earliest_cuts_both_ways():
    # cyc4 and the unit-weight cycle have many min cuts per bipartition.
    graphs = [g_path(), g_cyc4(), g_cycle(6), g_expo(5)]
    graphs += [random_connected(idx, n_max=8) for idx in range(40)]
    checked = 0
    for g in graphs:
        ts = sorted(g.terminals)
        for r in range(1, len(ts)):
            for A in itertools.combinations(ts, r):
                A = frozenset(A)
                B = frozenset(ts) - A
                a_side, b_side = min_cut_sides(g, A, B)
                assert a_side == earliest_min_cut(g, A, B)
                assert b_side == earliest_min_cut(g, B, A)
                assert not a_side & b_side
                checked += 1
    assert checked > 1000


def test_cut_threshold_examples():
    g = g_path()
    assert cut_threshold(g, 0, 0) == frozenset(range(3))
    assert cut_threshold(g, 0, 2) == frozenset({0})
    assert cut_threshold(g_cyc4(), 0, 2) == frozenset(range(4))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 6))
def test_cut_threshold_monotone_in_phi(idx, phi):
    g = random_connected(idx, n_max=7)
    s = min(g.terminals)
    assert cut_threshold(g, s, phi + 1) <= cut_threshold(g, s, phi)


def test_isolating_cuts_examples():
    g, beta = g_split()
    cuts = isolating_cuts(g, [frozenset({0}), frozenset({3})])
    assert cuts[frozenset({0})] == frozenset({0, 1, 2})
    assert cuts[frozenset({3})] == frozenset({3})
    cuts = isolating_cuts(g_cyc4(), [frozenset({i}) for i in range(4)])
    for i in range(4):
        assert cuts[frozenset({i})] == frozenset({i})
    with pytest.raises(ValueError):
        isolating_cuts(g_cyc4(), [frozenset({0})])


def test_max_flow_equals_bruteforce_min_cut():
    for idx in range(30):
        g = random_connected(idx, n_max=7)
        ts = sorted(g.terminals)
        a, b = ts[0], ts[-1]
        best = min(cut_value(g, {a} | set(sub))
                   for r in range(g.n - 1)
                   for sub in itertools.combinations(
                       [u for u in range(g.n) if u not in (a, b)], r))
        assert min_cut_value(g, {a}, {b}) == best



def _capped_solves(net, A, B):
    """The uncapped solve and one capped at each limit around its value."""
    exact = max_flow(net, A, B)
    for limit in sorted({1, exact.value - 1, exact.value, exact.value + 1,
                         2 * exact.value + 1} - {0, -1}):
        yield exact, limit, max_flow(net, A, B, limit)


def test_capped_solve_stops_exactly_when_the_value_reaches_the_limit():
    """value >= limit and no source side exactly when the exact value is
    >= limit; below it the capped solve is the uncapped one, residual
    and per-arc flows included."""
    stopped = same = 0
    for idx in range(40):
        g = random_connected(idx, n_max=10)
        net = FlowNetwork.undirected(g)
        ts = sorted(g.terminals)
        for A, B in ((ts[:1], ts[1:]), (ts[:1], ts[-1:]), (ts[:-1], ts[-1:])):
            for exact, limit, res in _capped_solves(net, A, B):
                if exact.value >= limit:
                    assert res.source_side is None, (idx, limit)
                    assert res.value >= limit, (idx, limit)
                    stopped += 1
                else:
                    assert (res.value, res.source_side, res.sink_side,
                            res.residual, res.flows) == \
                        (exact.value, exact.source_side, exact.sink_side,
                         exact.residual, exact.flows), (idx, limit)
                    same += 1
    assert stopped > 100 and same > 100, (stopped, same)


def test_finished_solve_equals_the_exact_one():
    """A stopped solve finished from its residual has the exact value and
    both minimal sides; finished up to a new limit it stops again exactly
    when the exact value reaches that limit; finishing a solve that did
    not stop changes nothing."""
    for idx in range(40):
        g = random_connected(idx, n_max=10)
        net = FlowNetwork.undirected(g)
        ts = sorted(g.terminals)
        for exact, limit, res in _capped_solves(net, ts[:1], ts[-1:]):
            if res.source_side is not None:
                done = res.finish()
                assert (done.value, done.source_side) == \
                    (res.value, res.source_side), (idx, limit)
                continue
            again = max_flow(net, ts[:1], ts[-1:], limit).finish(
                exact.value + 1)
            assert (again.value, again.source_side) == \
                (exact.value, exact.source_side), (idx, limit)
            stop = max_flow(net, ts[:1], ts[-1:], limit).finish(exact.value)
            assert stop.source_side is None and stop.value >= exact.value
            done = res.finish()
            assert (done.value, done.source_side, done.sink_side) == \
                (exact.value, exact.source_side, exact.sink_side), idx
    before = flow.max_flow_call_count()
    res = max_flow(FlowNetwork.undirected(g_cyc4()), {0}, {2}, 1)
    assert res.finish().value == 2
    assert flow.max_flow_call_count() == before + 1
