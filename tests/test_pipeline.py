import hashlib

import pytest

from steineraug import flow, oracle
from steineraug.external import external_augment, make_even
from steineraug.graph import EdgeAdditions, Graph, add_edges, star_graph, \
    steiner_connectivity
from steineraug.pipeline import (RejectedInstanceError, augment_pipeline,
                                 splitoff_pipeline)
from steineraug.supreme import supreme_forest

from conftest import g_cyc4, g_path, g_split, random_connected


def test_augment_cyc4_values():
    adds, report = augment_pipeline(g_cyc4(), 3, seed=0)
    assert adds.total_weight == 2 and report["optimum"] == 2
    adds, report = augment_pipeline(g_cyc4(), 4, seed=0)
    assert adds.total_weight == 4 and report["optimum"] == 4
    assert steiner_connectivity(add_edges(g_cyc4(), adds)) >= 4


def test_augment_path():
    adds, report = augment_pipeline(g_path(), 3, seed=2)
    assert adds.total_weight == 2
    assert report["k"] == 4
    ok, _ = oracle.verify_solution(g_path(), 3, adds)
    assert ok


def test_augment_noop_and_tau1():
    adds, report = augment_pipeline(g_cyc4(), 2, seed=0)
    assert adds.entries == () and report["total_weight"] == 0
    # tau=1 with disconnected terminal components: spanning tree.
    g = Graph.build(4, [(0, 1, 1), (2, 3, 1)], [0, 2])
    adds, report = augment_pipeline(g, 1)
    assert adds.total_weight == 1
    assert steiner_connectivity(add_edges(g, adds)) >= 1
    with pytest.raises(RejectedInstanceError):
        augment_pipeline(g_path(), 0)


def test_augment_report_fields_and_determinism():
    a1, r1 = augment_pipeline(g_cyc4(), 4, seed=9)
    a2, r2 = augment_pipeline(g_cyc4(), 4, seed=9)
    assert a1 == a2 and r1 == r2
    for key in ("tau", "seed", "phases", "k", "optimum",
                "initial_connectivity", "total_weight", "max_flow_calls"):
        assert key in r1


def test_splitoff_star_on_cyc4():
    g, x = star_graph(g_cyc4(), {0: 1, 3: 1})
    adds, report = splitoff_pipeline(g, x)
    assert adds.entries == ((0, 3, 1),)
    assert report["tau"] == 2
    base = g_cyc4()
    assert steiner_connectivity(add_edges(base, adds)) >= 2


def test_splitoff_gsplit_fixture():
    base, beta = g_split()
    g, x = star_graph(base, beta)
    adds, report = splitoff_pipeline(g, x)
    assert adds.entries == ((1, 3, 1),)
    assert report["target_weight"] == 1
    assert steiner_connectivity(add_edges(base, adds)) >= report["tau"]


def test_splitoff_rejections():
    base = g_cyc4()
    # Terminal x.
    g = Graph.build(5, base.edges + ((0, 4, 2),), [0, 1, 2, 3, 4])
    with pytest.raises(RejectedInstanceError):
        splitoff_pipeline(g, 4)
    # Odd degree.
    g, x = star_graph(base, {0: 1})
    with pytest.raises(RejectedInstanceError):
        splitoff_pipeline(g, x)
    # Only parallel edges to one vertex: the coalesced (x,u) edge is a
    # cut edge, so the instance is rejected with a diagnostic.
    g, x = star_graph(base, {0: 2})
    with pytest.raises(RejectedInstanceError):
        splitoff_pipeline(g, x)


@pytest.mark.parametrize("x", [9, -1, 1])
def test_splitoff_rejects_x_other_than_last_id(x):
    # Vertex 1 of the G_split star is a nonterminal of degree 2, so it
    # would be a valid external vertex if it had the last id.
    g, _ = star_graph(*g_split())
    calls = flow.max_flow_call_count()
    with pytest.raises(RejectedInstanceError, match="last id"):
        splitoff_pipeline(g, x)
    assert flow.max_flow_call_count() == calls


def test_splitoff_zero_degree_trivial():
    g, x = star_graph(g_cyc4(), {})
    adds, report = splitoff_pipeline(g, x)
    assert adds.entries == () and report["total_weight"] == 0


def test_cross_pipeline_consistency():
    """splitoff on (g + optimal external star) reproduces an optimal
    augmentation of g."""
    done = 0
    for idx in range(40):
        g = random_connected(idx, n_max=8)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 2)
        if conn < 1 or tau < 2:
            continue
        k = oracle.optimal_external_value(g, tau)
        if k == 0:
            continue
        from steineraug.external import external_augment, make_even
        from steineraug.supreme import supreme_forest
        f = supreme_forest(g, seed=idx)
        f.compute_rdem(tau)
        beta = make_even(external_augment(f, tau)).beta
        if len([u for u, w in beta.items() if w > 0]) < 2:
            continue
        gx, x = star_graph(g, beta)
        adds, report = splitoff_pipeline(gx, x, seed=idx)
        assert report["tau"] == tau
        assert adds.total_weight == (k + 1) // 2
        assert steiner_connectivity(add_edges(g, adds)) >= tau
        done += 1
    assert done >= 20


def _digest(rows) -> str:
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def test_augment_output_pin():
    """Exact outputs on a fixed corpus; a change here is an output change
    and has to be stated in CHANGES.md."""
    rows = []
    for idx in range(40):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        for bump in (1, 2, 3):
            tau = conn + bump
            if tau < 2:
                continue
            adds, _ = augment_pipeline(g, tau, seed=idx)
            rows.append((idx, tau, sorted(adds.merged().entries)))
    assert len(rows) == 120
    assert _digest(rows) == "7fba0d4f8991a7a3"


def test_splitoff_output_pin():
    """Exact outputs on test_04-style stars (even optimal external
    solution as x's star)."""
    rows = []
    for idx in range(30):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 2)
        if conn < 1 or tau < 2:
            continue
        forest = supreme_forest(g, seed=idx)
        forest.compute_rdem(tau)
        beta = make_even(external_augment(forest, tau)).beta
        if len([u for u, w in beta.items() if w > 0]) < 2:
            continue
        gx, x = star_graph(g, beta)
        adds, _ = splitoff_pipeline(gx, x, seed=idx)
        rows.append((idx, sorted(adds.merged().entries)))
    assert len(rows) == 30
    assert _digest(rows) == "4adbca9736dce990"
