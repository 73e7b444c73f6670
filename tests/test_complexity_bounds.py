"""The complexity bounds of the supreme recursion and the chain phase.

They are recorded metrics, not checks that abort a run: the recursion
records its depth and each layer's vertex total in its `stats`, and the
chain scheduler its events per cause and its chain-edge updates.  The
session fixture `conftest.complexity_bounds` checks every forest and
every chain phase of the suite against the bounds; here the 18
benchmark pool entries are checked, and each check is shown to fire.
"""

from __future__ import annotations

import pytest

from steineraug.chains import ChainScheduler
from steineraug.cli import parse_graph_text
from steineraug.forest import LaminarForest
from steineraug.pipeline import augment_pipeline, splitoff_pipeline

from conftest import check_chain_bounds, check_recursion_bounds, g_cycle
from test_perturb_layout import SPLITOFF_POOL, _augment_pool


def test_every_pool_forest_and_chain_phase_is_within_its_bounds(
        complexity_bounds):
    """The 18 pool entries: one forest each, and a chain phase each."""
    before = complexity_bounds.copy()
    for g, tau in [*_augment_pool("augment-wide", 48, 16, (1, 3, 10)),
                   *_augment_pool("augment-few-terminals", 400, 6, (3,))]:
        augment_pipeline(g, tau, seed=0)
    stars = sorted(SPLITOFF_POOL.glob("seed-*.txt"))
    assert len(stars) == 6
    for path in stars:
        g, _ = parse_graph_text(path.read_text())
        splitoff_pipeline(g, g.n - 1, seed=0)
    new = complexity_bounds - before
    assert new == {"forests": 18, "chain_phases": 18}, new


def test_recursion_bound_checks_fire():
    g = g_cycle(8)      # |T| = n = 8
    ok = {"max_depth": 56, "layer_vertices": {0: 8, 1: 133}}
    check_recursion_bounds(g, ok)
    for bad in ({"max_depth": 57, "layer_vertices": {0: 8}},
                {"max_depth": 1, "layer_vertices": {0: 8, 1: 134}}):
        with pytest.raises(AssertionError, match="exceeds"):
            check_recursion_bounds(g, bad)


def test_chain_bound_checks_fire():
    """n = 16 and a forest of 24 nodes: each cause may fire 3*24 + 16 =
    88 times, all of them 16n = 256 times, and the chain edges change
    256 times."""
    g = g_cycle(16)
    family = [frozenset({v}) for v in range(16)]
    family += [frozenset({v, v + 1}) for v in range(0, 16, 2)]
    forest = LaminarForest.from_family((R, 1, R) for R in family)
    sched = ChainScheduler(g, forest, [], 3)
    ok = {"slot": 88, "dem": 88, "delete": 80}
    sched.event_counts, sched.edge_update_count = ok, 256
    check_chain_bounds(sched)
    for counts, updates in (({"slot": 89, "dem": 0, "delete": 0}, 0),
                            ({"slot": 88, "dem": 88, "delete": 81}, 0),
                            (ok, 257)):
        sched.event_counts, sched.edge_update_count = counts, updates
        with pytest.raises(AssertionError, match="fired|exceed"):
            check_chain_bounds(sched)
