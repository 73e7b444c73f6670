import pytest
from hypothesis import given, settings, strategies as st

from steineraug.flow import FlowNetwork, max_flow, max_flow_call_count
from steineraug.graph import (EdgeAdditions, Graph, add_edges, cut_value,
                              WeightBoundError, is_steiner_cut,
                              least_steiner_cut, projection, star_graph,
                              steiner_connectivity)

from conftest import g_cyc4, g_expo, g_path, random_connected, sink_side


def test_validation_rejects_bad_graphs():
    with pytest.raises(ValueError):
        Graph.build(0, [], [0])
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 0, 1)], [0, 1])        # self-loop
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 1, 0)], [0, 1])        # zero weight
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 2, 1)], [0, 1])        # endpoint range
    with pytest.raises(ValueError):
        Graph.build(2, [(0, 1, 1)], [])            # no terminals


def test_total_weight_bound():
    edges = [(0, 1, 2**40 - 1), (1, 2, 1)]
    assert sum(w for (_, _, w) in Graph.build(3, edges, [0, 2]).edges) == 2**40
    with pytest.raises(ValueError, match="bound"):
        Graph.build(3, edges + [(0, 2, 1)], [0, 2])


def test_cut_value_path():
    g = g_path()
    assert cut_value(g, {0}) == 1
    assert cut_value(g, {0, 1}) == 1
    assert cut_value(g, set()) == 0
    assert cut_value(g, {0, 1, 2}) == 0


def test_projection_and_steiner_cut():
    g = g_expo(5)
    assert projection(g, {0, 1, 2}) == frozenset({0})
    assert projection(g, set()) == frozenset()
    g = g_path()
    assert is_steiner_cut(g, {0})
    assert not is_steiner_cut(g, {1})          # no terminal inside
    assert not is_steiner_cut(g, {0, 1, 2})    # all terminals inside


def test_add_edges_examples():
    g = add_edges(g_path(), EdgeAdditions(((0, 2, 2),)))
    assert cut_value(g, {0}) == 3
    g2 = add_edges(g_cyc4(), EdgeAdditions(((0, 2, 1), (1, 3, 1))))
    for v in range(4):
        assert cut_value(g2, {v}) == 3
    assert add_edges(g_path(), EdgeAdditions(())).edges == g_path().edges


def test_edge_additions_merge_and_degree():
    adds = EdgeAdditions(((0, 1, 1), (1, 0, 2), (2, 3, 1)))
    assert adds.total_weight == 4
    assert adds.merged().entries == ((0, 1, 3), (2, 3, 1))
    assert adds.degree(1) == 3
    assert adds.combine(EdgeAdditions(((0, 1, 1),))).degree(0) == 4
    deg = adds.degrees()
    assert [deg[u] for u in range(5)] == [adds.degree(u) for u in range(5)]
    assert deg[4] == 0 and set(deg) == {0, 1, 2, 3}


def test_steiner_connectivity_fixtures():
    assert steiner_connectivity(g_path()) == 1
    assert steiner_connectivity(g_cyc4()) == 2
    assert steiner_connectivity(g_expo(5)) == 3
    # Disconnected terminals -> 0.
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)], [0, 2])
    assert steiner_connectivity(g) == 0


def test_steiner_connectivity_stops_at_first_lambda_below():
    """steiner_connectivity(g, tau) < tau decides conn < tau exactly, and
    stops at the first terminal found below tau: its flow count is 1 plus
    that terminal's index among ts[1:], or |T| - 1 when there is none."""
    stopped = 0
    for idx in range(60):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        ts = sorted(g.terminals)
        net = FlowNetwork.undirected(g)
        lams = [max_flow(net, ts[:1], (t,)).value for t in ts[1:]]
        for tau in range(conn - 1, conn + 3):
            before = max_flow_call_count()
            below = steiner_connectivity(g, tau) < tau
            calls = max_flow_call_count() - before
            assert below == (conn < tau), (idx, tau)
            want = next((i + 1 for i, lam in enumerate(lams) if lam < tau),
                        len(lams))
            assert calls == want, (idx, tau)
            stopped += calls < len(g.terminals) - 1
    assert stopped > 0


def test_least_steiner_cut_is_the_least_terminal_flow():
    """The first least of the flows from each terminal to the earlier
    ones: its value is steiner_connectivity's, both its sides are Steiner
    cuts of it, and its sink side holds the least terminal."""
    for idx in range(40):
        g = random_connected(idx)
        res = least_steiner_cut(g)
        assert res.value == steiner_connectivity(g), idx
        net, ts = FlowNetwork.undirected(g), sorted(g.terminals)
        values = [max_flow(net, (t,), ts[:i]).value
                  for i, t in enumerate(ts[1:], 1)]
        i = values.index(min(values)) + 1
        assert res.source_side == max_flow(net, ts[i:i + 1],
                                           ts[:i]).source_side, idx
        sink = sink_side(net, ts[:i], res)
        assert min(g.terminals) in sink, idx
        for side in (res.source_side, sink):
            assert cut_value(g, side) == res.value, idx
            assert is_steiner_cut(g, side), idx
    assert least_steiner_cut(Graph.build(2, [(0, 1, 1)], [1])) is None


def test_star_graph():
    g, x = star_graph(g_path(), {0: 2, 2: 2, 1: 0})
    assert x == 3
    assert g.degree(x) == 4
    assert x not in g.terminals
    assert steiner_connectivity(g) == 3


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.data())
def test_cut_function_submodular_and_posimodular(idx, data):
    """d(X)+d(Y) >= d(X|Y)+d(X&Y) and >= d(X-Y)+d(Y-X)."""
    g = random_connected(idx, n_max=8)
    verts = list(range(g.n))
    X = set(data.draw(st.sets(st.sampled_from(verts))))
    Y = set(data.draw(st.sets(st.sampled_from(verts))))
    dx, dy = cut_value(g, X), cut_value(g, Y)
    assert dx + dy >= cut_value(g, X | Y) + cut_value(g, X & Y)
    assert dx + dy >= cut_value(g, X - Y) + cut_value(g, Y - X)


@pytest.mark.parametrize("entry", [(0, 3, 1), (-1, 2, 1), (0, 2, 1.5)],
                         ids=["endpoint-high", "endpoint-negative",
                              "non-integer-weight"])
def test_add_edges_rejects_a_bad_addition(entry):
    with pytest.raises(ValueError):
        add_edges(g_path(), EdgeAdditions((entry,)))


def test_add_edges_keeps_the_total_weight_bound():
    g = Graph.build(3, [(0, 1, 2**40 - 2), (1, 2, 1)], [0, 2])
    assert add_edges(g, EdgeAdditions(((0, 2, 1),))).total_weight == 2**40
    with pytest.raises(WeightBoundError):
        add_edges(g, EdgeAdditions(((0, 2, 1), (0, 1, 1))))
    with pytest.raises(WeightBoundError):
        star_graph(g, {0: 1, 2: 1})


def test_derived_graphs_check_only_their_additions(monkeypatch):
    """add_edges and star_graph give the graph a full check would, with
    its total weight, without checking the base graph's edges again."""
    for idx in range(30):
        g = random_connected(idx)
        F = EdgeAdditions(((0, g.n - 1, 2), (1, 2, 1)))
        beta = {u: u % 3 for u in range(g.n)}
        want_sum = Graph(g.n, g.edges + F.entries, g.terminals)
        want_star = Graph(g.n + 1, g.edges + tuple(
            (u, g.n, w) for u, w in sorted(beta.items()) if w), g.terminals)
        checks = []
        monkeypatch.setattr(Graph, "__post_init__",
                            lambda self: checks.append(self))
        got_sum, (got_star, x) = add_edges(g, F), star_graph(g, beta)
        monkeypatch.undo()
        assert checks == [] and x == g.n
        for got, want in ((got_sum, want_sum), (got_star, want_star)):
            assert got == want
            assert got.total_weight == want.total_weight == \
                sum(w for (_, _, w) in want.edges)
