import itertools
import random
import threading

import pytest
from hypothesis import given, settings, strategies as st

from steineraug import flow
from steineraug.flow import (FlowNetwork, NoFiniteCutError, isolating_cuts,
                             max_flow)
from steineraug.graph import Graph, cut_value
from steineraug.supreme import perturb

from conftest import (arc_flows, g_cyc4, g_cycle, g_expo, g_path, g_split,
                      network, random_connected, sink_side)


# Reference cut primitives with no production caller, checked below.

def min_cut_sides(g, A, B):
    """Minimal A side and minimal B side of the A-B min cuts."""
    net = FlowNetwork.undirected(g)
    res = max_flow(net, A, B)
    return res.source_side, sink_side(net, B, res)


def latest_min_cut(g, A, B):
    """A-side-maximal A-B min cut: complement of the sink-reaching set."""
    return frozenset(range(g.n)) - min_cut_sides(g, A, B)[1]


def cut_threshold(g, s, phi):
    """ct(s, phi) = {s} union {t : lambda(s, t) >= phi}, one max flow per
    vertex."""
    if phi <= 0:
        return frozenset(range(g.n))
    net = FlowNetwork.undirected(g)
    return frozenset({s} | {t for t in range(g.n)
                            if t != s and max_flow(net, {s}, {t}).value >= phi})


def test_max_flow_examples():
    assert max_flow(FlowNetwork.undirected(g_path()), {0}, {2}).value == 1
    assert max_flow(FlowNetwork.undirected(g_cyc4()), {0}, {2}).value == 2
    net = FlowNetwork(2, ((0, 1, 0),))
    assert max_flow(net, {0}, {1}).value == 0


def test_max_flow_flows_respect_capacities():
    net = FlowNetwork(4, ((0, 1, 2), (0, 2, 1), (1, 3, 1), (2, 3, 2),
                          (1, 2, 1)))
    res = max_flow(net, {0}, {3})
    assert res.value == 3
    for f, (u, v, c) in zip(arc_flows(net, res), net.arcs):
        assert 0 <= f <= c


def test_infinite_capacity_and_no_finite_cut():
    net = FlowNetwork(3, ((0, 1, None), (1, 2, 5)))
    assert max_flow(net, {0}, {2}).value == 5
    bad = FlowNetwork(2, ((0, 1, None),))
    with pytest.raises(NoFiniteCutError):
        max_flow(bad, {0}, {1})
    # The direct arc is one phase ahead of the infinite path, so a solve
    # capped at 3 stops before it finds the infinite path.
    both = FlowNetwork(3, ((0, 1, 5), (0, 2, None), (2, 1, None)))
    stopped = max_flow(both, {0}, {1}, 3)
    assert stopped.value == 5 and stopped.source_side is None


def test_network_validation():
    with pytest.raises(ValueError):
        max_flow(FlowNetwork(2, ()), {0}, {0})
    with pytest.raises(ValueError):
        FlowNetwork(2, ((0, 1, -1),))


def _layout(net):
    return net.n, net.head, net.to, net.cap, net.inf, net.arcs


def test_undirected_network_matches_arc_list():
    """g's network (`FlowNetwork.undirected`) is the arc-list constructor's
    network on g's coalesced edges in sorted order, and g's perturbed
    network (`supreme.perturb`) has the same adjacency lists and arc
    heads, each capacity w~ = w << m | 2^i: multigraphs with edges in
    either orientation, isolated vertices and no edge at all."""
    rng = random.Random(30)
    graphs = [Graph.build(1, [], [0]), Graph.build(5, [], [0, 4])]
    for _ in range(150):
        n = rng.randint(2, 12)
        edges = [(u, v, rng.randint(1, 9)) if rng.random() < 0.5
                 else (v, u, rng.randint(1, 9))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.4]
        edges += rng.sample(edges, len(edges) // 3)
        rng.shuffle(edges)
        graphs.append(Graph.build(n + rng.randint(0, 3), edges, [0]))
    graphs += [random_connected(idx) for idx in range(40)]
    for g in graphs:
        net = FlowNetwork.undirected(g)
        assert _layout(net) == _layout(network(g.n, dict(sorted(
            g.coalesced().items())))), g
        tilde = perturb(g)
        m = len(net.to) // 2
        assert (tilde.n, tilde.head, tilde.to) == (net.n, net.head, net.to)
        assert tilde.cap[::2] == [c << m | 1 << i
                                  for i, c in enumerate(net.cap[::2])]
        assert tilde.inf == net.inf << m


@pytest.mark.parametrize("weights, message", [
    ({(0, 3): 1}, "arc endpoint out of range: (0, 3)"),
    ({(0, 1): 1, (-1, 2): 1}, "arc endpoint out of range: (-1, 2)"),
    ({(0, 1): -1}, "negative capacity: (0, 1, -1)"),
    ({(0, 1): 2, (2, 1): -5, (1, 4): 1}, "negative capacity: (2, 1, -5)"),
    ({(1, 9): 1, (0, 2): -1}, "arc endpoint out of range: (1, 9)")],
    ids=["endpoint-high", "endpoint-negative", "negative", "negative-later",
         "first-bad-arc-decides"])
def test_network_from_weight_map_raises_as_arc_list(weights, message):
    """A network built from a weight map goes through the arc-list
    constructor, the one that checks its arcs: it names the first bad
    arc, also under -O."""
    with pytest.raises(ValueError) as err:
        network(3, weights)
    assert str(err.value) == message


def test_call_counter():
    before = flow.max_flow_call_count()
    max_flow(FlowNetwork.undirected(g_path()), {0}, {2})
    assert flow.max_flow_call_count() == before + 1
    # Each thread keeps its own count: flows in another thread leave
    # this one's unchanged.
    net = FlowNetwork.undirected(g_cyc4())
    worker = threading.Thread(
        target=lambda: [max_flow(net, {0}, {2}) for _ in range(5)])
    worker.start()
    worker.join()
    assert flow.max_flow_call_count() == before + 1


def test_earliest_min_cut_examples():
    assert max_flow(FlowNetwork.undirected(g_path()), {0}, {2}).source_side \
        == frozenset({0})
    assert max_flow(FlowNetwork.undirected(g_expo(5)), {0}, {4}).source_side \
        == frozenset({0, 1, 2, 3})


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
        res = max_flow(FlowNetwork.undirected(g), {a}, {b})
        lam, early = res.value, res.source_side
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
                net = FlowNetwork.undirected(g)
                assert a_side == max_flow(net, A, B).source_side
                assert b_side == max_flow(net, B, A).source_side
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
        assert max_flow(FlowNetwork.undirected(g), {a}, {b}).value == best



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
                    assert (res.value, res.source_side,
                            sink_side(net, B, res), res.residual,
                            arc_flows(net, res)) == \
                        (exact.value, exact.source_side,
                         sink_side(net, B, exact), exact.residual,
                         arc_flows(net, exact)), (idx, limit)
                    same += 1
    assert stopped > 100 and same > 100, (stopped, same)


def test_least_cut_returns_the_first_least_solve(monkeypatch):
    """Without a limit, the first solve of least exact value with its
    source side; with one, the first solve below it, and no pair solved
    past it; a solve at limit 0 is not begun, with no kernel call."""
    kernel_calls = []
    kernel_for = flow._kernel_for

    def counted(total_cap):
        kernel_calls.append(total_cap)
        return kernel_for(total_cap)

    monkeypatch.setattr(flow, "_kernel_for", counted)
    stopped = 0
    for idx in range(40):
        g = random_connected(idx, n_max=10)
        net = FlowNetwork.undirected(g)
        ts = sorted(g.terminals)
        exact = [max_flow(net, ts[:1], (t,)) for t in ts[1:]]
        values = [res.value for res in exact]
        first = values.index(min(values))
        best = flow.least_cut(net, ((ts[:1], (t,)) for t in ts[1:]))
        assert (best.value, best.source_side) == \
            (exact[first].value, exact[first].source_side), idx
        for limit in range(min(values), min(values) + 3):
            below = [i for i, v in enumerate(values) if v < limit]
            read = []
            res = flow.least_cut(net, ((read.append(t) or ts[:1], (t,))
                                       for t in ts[1:]), limit)
            if below:
                i = below[0]
                assert (res.value, res.source_side) == \
                    (exact[i].value, exact[i].source_side), (idx, limit)
                assert read == ts[1:i + 2], (idx, limit)
            else:
                assert res.value >= limit and read == ts[1:], (idx, limit)
        kernel_calls.clear()
        cap = max_flow(net, ts[:1], ts[-1:], 0)
        assert (cap.value, cap.source_side) == (0, None)
        capped = max_flow(net, ts[:1], ts[-1:], 1)
        if capped.source_side is None:
            stopped += 1
        assert len(kernel_calls) == 1, idx  # the capped solve's only
    assert stopped > 0


def _star(weights):
    """A star whose leaf i is joined to its centre 0 by weights[i - 1],
    and the pairs from each leaf to the centre: their values are
    `weights`, in order."""
    net = network(len(weights) + 1,
                  {(0, i): w for i, w in enumerate(weights, 1)})
    return net, [((i,), (0,)) for i in range(1, len(weights) + 1)]


def test_least_cut_bound_gives_the_exact_least_below_it():
    """With `bound`, the first least value below it, exact with its
    source side, not the first value below it, which is what `limit`
    stops at; None when no value is below it."""
    res = flow.least_cut(*_star([5, 3, 1, 2]), bound=4)
    assert (res.value, res.source_side) == (1, frozenset({3}))
    assert flow.least_cut(*_star([5, 3, 1, 2]), 4).value == 3
    assert flow.least_cut(*_star([5, 6, 4]), bound=4) is None
    assert flow.least_cut(*_star([5, 1, 1]), bound=4).source_side \
        == frozenset({2})
    assert flow.least_cut(_star([5])[0], [], bound=4) is None
    for idx in range(40):
        g = random_connected(idx, n_max=10)
        net = FlowNetwork.undirected(g)
        ts = sorted(g.terminals)
        exact = [max_flow(net, ts[:1], (t,)) for t in ts[1:]]
        values = [res.value for res in exact]
        first = exact[values.index(min(values))]
        for bound in range(min(values) - 1, min(values) + 3):
            res = flow.least_cut(net, ((ts[:1], (t,)) for t in ts[1:]),
                                 bound=bound)
            if min(values) < bound:
                assert (res.value, res.source_side) == \
                    (first.value, first.source_side), (idx, bound)
            else:
                assert res is None, (idx, bound)


def test_least_cut_bound_caps_the_first_solve(monkeypatch):
    """The running cap starts at `bound`: the first solve stops there (a
    push may overshoot it), and each later one is capped at the least of
    `bound` and the values so far."""
    limits = []
    kernel_for = flow._kernel_for

    def recording(total_cap):
        kernel = kernel_for(total_cap)

        def run(head, to, cap, sources, sinks, limit):
            limits.append(limit)
            return kernel(head, to, cap, sources, sinks, limit)
        return run

    monkeypatch.setattr(flow, "_kernel_for", recording)
    assert flow.least_cut(*_star([100, 3, 1]), bound=4).value == 1
    assert limits == [4, 4, 3]
