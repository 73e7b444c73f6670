"""Splitting-off's target tau = lambda(G) read off g's forest truncated at
U, the least terminal degree in G (`pipeline.splitoff_pipeline`).

g = G - x is a subgraph of G, so no Steiner cut of G below U separates
one of g's U-classes, and the growing-sink sweep over them, capped at U,
is lambda(G) whenever lambda(G) < U.  The U-forest then serves tau too:
after `compute_rdem(tau)` it is the forest built at tau.  The corpus is
`random_connected(0..199)`, each with its even external star at
lambda + 2 and 4 random-budget stars.
"""

from __future__ import annotations

import random

import pytest

from steineraug import flow
from steineraug.external import external_augment, make_even
from steineraug.graph import Graph, least_steiner_cut, star_graph, \
    steiner_connectivity
from steineraug.pipeline import RejectedInstanceError, _remove_vertex, \
    splitoff_pipeline
from steineraug.supreme import supreme_forest

from conftest import random_connected


def _stars():
    """(idx, G, x) over the corpus of the module docstring."""
    for idx in range(200):
        g = random_connected(idx)
        lam = steiner_connectivity(g)
        betas = []
        if lam >= 1:
            forest = supreme_forest(g)
            forest.compute_rdem(lam + 2)
            betas.append(make_even(external_augment(forest, lam + 2)).beta)
        rng = random.Random(9000 + idx)
        for _ in range(4):
            beta = {u: rng.randint(0, 4)
                    for u in rng.sample(range(g.n), rng.randint(2, g.n))}
            if sum(beta.values()) % 2:
                beta[min(beta)] += 1
            betas.append(beta)
        for beta in betas:
            yield (idx, *star_graph(g, beta))


def _layout(forest):
    """The live nodes in post-order, each with its parent's terminals."""
    nodes = forest.nodes
    return [(sorted(nodes[i].terminals), nodes[i].c, nodes[i].rdem,
             sorted(nodes[i].mu_tilde),
             None if nodes[i].parent is None
             else sorted(nodes[nodes[i].parent].terminals))
            for i in forest.postorder()]


def test_target_over_the_u_classes_is_lambda_on_the_star_corpus():
    """On every star, lambda(G) over g's U-classes, each flow capped at
    the least value so far, equals the sweep over all terminals; below U
    the U-forest after `compute_rdem(tau)` is the forest built at tau,
    node for node and in the same order."""
    seen = {"U<=1": 0, "tau=U": 0, "tau<U": 0}
    for idx, gx, x in _stars():
        tau = steiner_connectivity(gx)
        g, _, least = _remove_vertex(gx, x)
        if least <= 1:
            seen["U<=1"] += 1
            assert steiner_connectivity(gx, bound=least) == tau, idx
            continue
        stats: dict = {}
        forest = supreme_forest(g, stats=stats, tau=least)
        assert steiner_connectivity(gx, groups=stats["classes"],
                                    bound=least) == tau, idx
        if tau == least:
            seen["tau=U"] += 1
            continue
        seen["tau<U"] += 1
        at_tau = supreme_forest(g, tau=tau)
        forest.compute_rdem(tau)
        at_tau.compute_rdem(tau)
        assert _layout(forest) == _layout(at_tau), idx
    assert seen["tau<U"] >= 100 and min(seen.values()) >= 30, seen


def test_splitoff_reports_lambda_with_fewer_flows_on_the_star_corpus():
    """The pipeline's tau is lambda(G) on every star it accepts with
    d(x) > 0, the stars below U among them."""
    below = done = 0
    for idx, gx, x in _stars():
        try:
            _, report = splitoff_pipeline(gx, x, seed=idx)
        except RejectedInstanceError:
            continue
        if report["tau"] is None:   # d(x) = 0: nothing to split
            continue
        done += 1
        assert report["tau"] == steiner_connectivity(gx), idx
        below += report["tau"] < min(gx.degree(t) for t in gx.terminals)
    assert done >= 900 and below >= 100, (done, below)


def test_remove_vertex_is_the_rebuilt_graph_in_one_pass():
    """G - x, derived with no check, equals the graph `Graph.build` makes
    of G's other edges, its total weight included; x's star and U come
    from the same pass."""
    for idx, gx, x in _stars():
        g, beta, least = _remove_vertex(gx, x)
        rest = [e for e in gx.edges if x not in e[:2]]
        built = Graph.build(gx.n - 1, rest, gx.terminals)
        assert (g, g.total_weight) == (built, built.total_weight), idx
        star = {}
        for (u, v, w) in gx.edges:
            if x in (u, v):
                star[u + v - x] = star.get(u + v - x, 0) + w
        assert beta == star and list(beta) == list(star), idx
        assert least == min(gx.degree(t) for t in gx.terminals), idx


def test_limit_stops_at_the_first_value_below_it_bound_does_not():
    """random_connected(33) with the star {0: 1, 1: 1}: U = 5, g's
    5-classes are [0], [3], [4], [5, 8], and lambda(G) = 1.  The sweep
    with `limit` = U stops at 2, the first value below it; the pipeline's
    sweep with `bound` gives 1."""
    gx, x = star_graph(random_connected(33), {0: 1, 1: 1})
    g, _, least = _remove_vertex(gx, x)
    stats: dict = {}
    supreme_forest(g, stats=stats, tau=least)
    assert least == 5 and stats["classes"] == [[0], [3], [4], [5, 8]]
    assert least_steiner_cut(gx, least, stats["classes"]).value == 2
    assert steiner_connectivity(gx, groups=stats["classes"],
                                bound=least) == 1
    _, report = splitoff_pipeline(gx, x)
    assert report["tau"] == 1 == steiner_connectivity(gx), report


def _no_forest(monkeypatch):
    from steineraug import pipeline

    def refused(*args, **kwargs):
        raise AssertionError("the forest was built")
    monkeypatch.setattr(pipeline, "supreme_forest", refused)


def test_u_0_gives_tau_0_at_no_flow(monkeypatch):
    """Terminal 3 is isolated in G, so U = 0 = tau: no flow, no forest,
    and the star is paired as leftover."""
    _no_forest(monkeypatch)
    g = Graph.build(5, [(0, 1, 2), (1, 2, 1), (0, 2, 1)], [0, 2, 3])
    gx, x = star_graph(g, {0: 1, 1: 1})
    adds, report = splitoff_pipeline(gx, x)
    assert report["tau"] == 0 and report["max_flow_calls"] == 0, report
    assert adds.entries == ((0, 1, 1),) and "supreme" not in report


@pytest.mark.parametrize("joined", [False, True])
def test_u_1_sweeps_the_terminals_capped_at_1(monkeypatch, joined):
    """Terminal 3 hangs off vertex 2 by a unit edge, so U = 1 and no
    forest is built.  g has two terminal components, {0, 1} and
    {2, 3, 4}; x joins them (tau = 1, and the tree edge (0, 2) joins
    them again) or not (tau = 0, the star is all leftover).  One flow
    per terminal after the first, each capped at 1, none after a 0."""
    _no_forest(monkeypatch)
    g = Graph.build(5, [(0, 1, 2), (2, 3, 1), (2, 4, 3)], [0, 1, 3, 4])
    beta = {0: 1, 1: 1, 2: 1, 4: 1} if joined else {0: 1, 1: 1}
    gx, x = star_graph(g, beta)
    adds, report = splitoff_pipeline(gx, x)
    assert report["tau"] == int(joined) == steiner_connectivity(gx)
    assert report["max_flow_calls"] == (3 if joined else 2), report
    assert "supreme" not in report
    assert adds.entries == (((0, 2, 1), (1, 4, 1)) if joined
                            else ((0, 1, 1),))


@pytest.mark.parametrize("beta", [{0: 2, 1: 2}, {0: 1, 1: 1}])
def test_splitoff_below_2_terminals_raises_as_before(beta):
    """One terminal: the same error as lambda(G) itself raises, whether U
    is above 1 (a forest would be built) or not."""
    g = Graph.build(3, [(0, 1, 3), (1, 2, 3), (0, 2, 3)], [0])
    gx, x = star_graph(g, beta)
    before = flow.max_flow_call_count()
    with pytest.raises(ValueError, match="at least 2 terminals"):
        splitoff_pipeline(gx, x)
    with pytest.raises(ValueError, match="at least 2 terminals"):
        steiner_connectivity(gx)
    assert flow.max_flow_call_count() == before
