"""Local flows against the single-sink flows they replaced.

The references below are the earlier code, kept as it was: the flow
tree cuts each terminal u from its tree parent p alone, and the Steiner
min cut is the least of the flows from the least terminal t_0 to each
other one.  The package now cuts u from p's known tau-class, and t_i
from all of t_0..t_{i-1}.  Both must give the same trees, classes,
per-terminal values and minimal source sides, the same least values and
flow counts, and the new Steiner cut's minimal sink side must be the
reference's minimal source side.
"""

from __future__ import annotations

from typing import Optional

import pytest

from steineraug import flow
from steineraug.graph import Graph, least_steiner_cut, steiner_connectivity
from steineraug.supreme import _flow_tree, perturb

from conftest import random_connected, sink_side, tree_plus_2n, weight_map


# ---- references: the single-sink flows ---------------------------------------

def _flow_tree_to_parent(net: flow.FlowNetwork, ts: list[int],
                         limit: Optional[int] = None):
    """`supreme._flow_tree` with each flow from u to its tree parent only."""
    parent = dict.fromkeys(ts[1:], ts[0])
    adj: dict[int, list[tuple[int, int]]] = {t: [] for t in ts}
    for i, u in enumerate(ts[1:], 1):
        p = parent[u]
        res = flow.max_flow(net, (u,), (p,), limit)
        if res.source_side is None:
            value = limit
        else:
            value = res.value
            for v in ts[i + 1:]:
                if parent[v] == p and v in res.source_side:
                    parent[v] = u
        adj[u].append((p, value))
        adj[p].append((u, value))
    return adj


def _least_terminal_cut(g: Graph, limit: Optional[int] = None):
    """`graph.least_steiner_cut` over the flows from t_0 to each t_i."""
    ts = sorted(g.terminals)
    return flow.least_cut(flow.FlowNetwork.undirected(g),
                          ((ts[:1], (t,)) for t in ts[1:]), limit)


# ---- inputs ------------------------------------------------------------------

def _components(idx: int) -> Graph:
    """Two to four corpus graphs side by side, terminals of each kept."""
    parts = [random_connected(4 * idx + j, n_max=7)
             for j in range(2 + idx % 3)]
    edges, terminals, off = [], [], 0
    for h in parts:
        edges += [(u + off, v + off, w) for (u, v, w) in h.edges]
        terminals += [t + off for t in h.terminals]
        off += h.n
    return Graph.build(off, edges, terminals)


GRAPHS = {
    "random_connected": [random_connected(idx) for idx in range(150)],
    "tree_plus_2n": [tree_plus_2n(n, 31337 + n, n // 3)
                     for n in (30, 45, 60, 90, 120, 200)],
    "components": [_components(idx) for idx in range(30)],
}


def _taus(g: Graph) -> list[Optional[int]]:
    lam = steiner_connectivity(g)
    return [None, 2, 3, lam, lam + 1]


def _logged(monkeypatch) -> tuple[dict, dict]:
    """Record each `max_flow` call's value and minimal source side, and
    its sinks, by its single source, as `_flow_tree` makes one flow per
    source terminal; a stopped solve's value is only known to be at least
    its limit."""
    log: dict = {}
    sinks_of: dict = {}
    real = flow.max_flow

    def logged(net, sources, sinks, limit=None):
        res = real(net, sources, sinks, limit)
        (u,) = sources
        log[u] = (res.source_side is None or res.value, res.source_side)
        sinks_of[u] = tuple(sinks)
        return res

    monkeypatch.setattr(flow, "max_flow", logged)
    return log, sinks_of


def _adjacency(edges, ts):
    """The flow tree's edges (lambda, u, parent) as the reference's
    adjacency lists."""
    adj: dict[int, list[tuple[int, int]]] = {t: [] for t in ts}
    for c, u, p in edges:
        adj[u].append((p, c))
        adj[p].append((u, c))
    return adj


def _classes(tree, ts, limit):
    """The tau-classes read off the reference's tree: each terminal with
    the earliest of itself and its `limit` neighbours."""
    classes: dict[int, list[int]] = {}
    for u in ts:
        head = min([u] + [v for v, c in tree[u] if c == limit])
        classes.setdefault(head, []).append(u)
    return sorted(classes.values())


# ---- tests -------------------------------------------------------------------

@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_flow_tree_to_the_class_matches_the_parent_flows(kind, monkeypatch):
    """On the perturbed network, at limit H = tau * 2^m + 1 as in the
    recursion: the same tree, classes, value and minimal source side of
    every flow.  The exact solves handed on are the flows that did not
    stop, in order."""
    log, sinks_of = _logged(monkeypatch)
    one_class = 0
    for idx, g in enumerate(GRAPHS[kind]):
        weights = weight_map(perturb(g))
        net = flow.FlowNetwork(g.n, [(u, v, w) for (u, v), w
                                     in weights.items()], False)
        ts = sorted(g.terminals)
        for tau in _taus(g):
            limit = None if tau is None else tau * (1 << len(weights)) + 1
            log.clear()
            tree, classes, solved = _flow_tree(net, ts, limit)
            solves, sinks = dict(log), dict(sinks_of)
            log.clear()
            ref_tree = _flow_tree_to_parent(net, ts, limit)
            where = (kind, idx, tau)
            assert _adjacency(tree, ts) == ref_tree, where
            assert sorted(classes.values()) == \
                _classes(ref_tree, ts, limit), where
            assert all(K[0] == head for head, K in classes.items()), where
            assert solves == log, where
            exact = [u for c, u, _ in tree if c != limit]
            assert [(d, X) for X, d in solved] == \
                [log[u] for u in exact], where
            if len(classes) == 1:
                # A root of one class: each terminal's flow ran to all
                # earlier ones (the growing sink).
                assert [sinks[t] for t in ts[1:]] == \
                    [tuple(ts[:i]) for i in range(1, len(ts))], where
                one_class += 1
    # Terminals in several components are never one class.
    assert (one_class > 0) == (kind != "components"), one_class


@pytest.mark.parametrize("kind", sorted(GRAPHS))
def test_growing_sink_matches_the_least_terminal_flows(kind):
    """The same flow count at every limit, and both values exact or both
    at least the limit; an exact value is the same, and the new minimal
    sink side is the reference's minimal source side, the side of the
    least terminal."""
    for idx, g in enumerate(GRAPHS[kind]):
        for tau in _taus(g):
            counts = []
            for cut in (least_steiner_cut, _least_terminal_cut):
                before = flow.max_flow_call_count()
                counts.append((cut(g, tau),
                               flow.max_flow_call_count() - before))
            (res, calls), (ref, ref_calls) = counts
            where = (kind, idx, tau)
            assert calls == ref_calls, where
            if ref.source_side is None:
                assert res.source_side is None, where
                assert min(res.value, ref.value) >= tau, where
            else:
                assert res.value == ref.value, where
                # The solve ran from the least terminal s of its source
                # side to every terminal below s.
                net, ts = flow.FlowNetwork.undirected(g), sorted(g.terminals)
                s = min(res.source_side & g.terminals)
                below = ts[:ts.index(s)]
                again = flow.max_flow(net, (s,), below)
                assert (again.value, again.source_side) == \
                    (res.value, res.source_side), where
                assert sink_side(net, below, res) == ref.source_side, where
