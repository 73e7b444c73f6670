"""Splitting-off's target read off g's forest (`deg_external.star_target`).

When every vertex of positive budget in x's star is a terminal,
min(U, lambda(G)), G = g + x, is the least of U and of c(R) + beta(R)
over the live nodes R of g's forest truncated at U: an
inclusion-minimal minimizer of d_g(Y) + beta(Y) is extreme in g, and
its supreme set, of the same projection and no larger d_g, holds the
same budget.  So the pipeline
builds no network for G and runs no sweep there, and
`deg_external_augment` checks such a budget at no flow.  A star with a
nonterminal neighbour is swept as before: the read is wrong there.
"""

from __future__ import annotations

import random
from itertools import islice

import pytest

from steineraug import flow, pipeline
from steineraug.deg_external import (InfeasibleBudgetError, check_feasibility,
                                     deg_external_augment, star_target)
from steineraug.graph import Graph, star_graph, steiner_connectivity
from steineraug.pipeline import _remove_vertex, splitoff_pipeline
from steineraug.supreme import supreme_forest

from conftest import random_connected, tree_plus_2n
from test_deg_external import _splitoff_stars
from test_supreme import DISCONNECTED_SIZE, _disconnected


def _on_terminals(g: Graph, beta: dict[int, int]) -> bool:
    return all(u in g.terminals for u, w in beta.items() if w > 0)


def _terminal_star(g: Graph, rng: random.Random) -> dict[int, int]:
    """Budgets of 0-4 units on a random nonempty set of g's terminals."""
    ts = sorted(g.terminals)
    return {t: rng.randint(0, 4)
            for t in rng.sample(ts, rng.randint(1, len(ts)))}


def _terminal_stars():
    """G = g + x over the terminal stars of `_splitoff_stars`, then random
    terminal stars on random_connected(0..399), tree_plus_2n(30/60/120)
    and `test_supreme._disconnected`."""
    for gx, _ in _splitoff_stars():
        if _on_terminals(gx, _remove_vertex(gx, gx.n - 1)[1]):
            yield gx
    rng = random.Random(38)
    graphs = [random_connected(idx) for idx in range(400)]
    graphs += [tree_plus_2n(n, seed, n // 3) for n in (30, 60, 120)
               for seed in range(4)]
    graphs += [_disconnected(idx) for idx in range(DISCONNECTED_SIZE)]
    for g in graphs:
        for _ in range(2):
            yield star_graph(g, _terminal_star(g, rng))[0]


def test_read_equals_the_sweep_on_every_terminal_star():
    """On every terminal star with a forest (U > 1, 2 or more terminals),
    the read equals the sweep over g's U-classes that a star off the
    terminals still runs, and min(U, lambda(G))."""
    seen = below = 0
    for gx in _terminal_stars():
        g, beta, least = _remove_vertex(gx, gx.n - 1)
        if least <= 1 or len(g.terminals) < 2:
            continue
        stats: dict = {}
        forest = supreme_forest(g, stats=stats, tau=least)
        read = star_target(g, forest, beta, least)
        assert read == steiner_connectivity(gx, groups=stats["classes"],
                                            bound=least), gx
        assert read == min(least, steiner_connectivity(gx)), gx
        seen += 1
        below += read < least
    assert seen >= 1250 and below >= 300, (seen, below)


def test_read_on_the_tau_forest_is_check_feasibility():
    """3,600 terminal budgets over random_connected(0..299) at tau =
    lambda + 1..lambda + 3: the read on the tau-forest with rdem computed
    reaches tau exactly when the literal check passes, and
    deg_external_augment refuses those it does not reach at no flow."""
    rng = random.Random(3600)
    checked = feasible = 0
    for idx in range(300):
        g = random_connected(idx)
        lam = steiner_connectivity(g)
        for tau in range(lam + 1, lam + 4):
            forest = supreme_forest(g, tau=tau)
            forest.compute_rdem(tau)
            for _ in range(4):
                beta = _terminal_star(g, rng)
                ok = check_feasibility(g, tau, beta)
                assert (star_target(g, forest, beta, tau) >= tau) == ok, idx
                checked += 1
                feasible += ok
                if not ok:
                    before = flow.max_flow_call_count()
                    with pytest.raises(InfeasibleBudgetError):
                        deg_external_augment(g, tau, beta, forest)
                    assert flow.max_flow_call_count() == before, idx
    assert checked == 3600 and 500 <= feasible <= 3100, feasible


def test_negative_budget_is_refused_before_the_read():
    g = random_connected(5)
    forest = supreme_forest(g)
    t = min(g.terminals)
    assert star_target(g, forest, {t: -1}, 1) is None
    with pytest.raises(InfeasibleBudgetError):
        deg_external_augment(g, 1, {t: -1}, forest)


def _layouts_before_the_split(monkeypatch) -> list[list[int]]:
    """Per `split_off` call from now on, the vertex counts of the
    undirected networks laid out before it: the target step's."""
    sizes: list[int] = []
    seen: list[list[int]] = []
    real_layout = flow.FlowNetwork.laid_out.__func__
    real_split = pipeline.split_off

    def laid_out(cls, n, *args):
        sizes.append(n)
        return real_layout(cls, n, *args)

    def split_off(*args):
        seen.append(sizes[:])
        out = real_split(*args)
        sizes.clear()   # the split's own networks
        return out
    monkeypatch.setattr(flow.FlowNetwork, "laid_out", classmethod(laid_out))
    monkeypatch.setattr(pipeline, "split_off", split_off)
    return seen


def _off_terminal_star() -> Graph:
    """random_connected(20), the path 0 - 1 - 2 of weights 5 and 3 with
    terminals 1 and 2, plus x = 3 joined to 0, 1 and 2 by 3, 1 and 2, a
    star of `_splitoff_stars`.  U = 5 = lambda(G), the cut {2}.  g's
    forest has the node {1}, supreme set {0, 1} of value 3, so a read
    summing beta over its terminals would give 3 + 1 = 4: vertex 0, a
    nonterminal, holds 3 units of x's star."""
    return Graph.build(4, [(0, 1, 5), (1, 2, 3), (0, 3, 3), (1, 3, 1),
                           (2, 3, 2)], [1, 2])


def test_terminal_star_lays_out_no_network_for_g(monkeypatch):
    """Up to the split, splitting off a terminal star lays out g's
    network only; a star with a nonterminal neighbour still sweeps G's."""
    pool = [gx for gx, _ in islice(_splitoff_stars(), 7)]  # the benchmark's
    seen = _layouts_before_the_split(monkeypatch)
    for gx in pool:
        assert _on_terminals(gx, _remove_vertex(gx, gx.n - 1)[1])
        splitoff_pipeline(gx, gx.n - 1)
    off = _off_terminal_star()
    splitoff_pipeline(off, 3)
    assert len(seen) == 8, seen
    for gx, sizes in zip(pool, seen):
        assert max(sizes) == gx.n - 1, sizes
    assert max(seen[-1]) == off.n and seen[-1].count(off.n) == 1, seen


def test_a_star_off_the_terminals_is_swept():
    """The guard is an `if`, so it holds under python -O too: on
    `_off_terminal_star` the read is refused, and the pipeline's sweep
    finds tau = 5 where the forced read would give 4."""
    gx = _off_terminal_star()
    g, beta, least = _remove_vertex(gx, 3)
    forest = supreme_forest(g, tau=least)
    assert least == 5 == steiner_connectivity(gx)
    assert star_target(g, forest, beta, least) is None
    _, report = splitoff_pipeline(gx, 3)
    assert report["tau"] == 5, report
