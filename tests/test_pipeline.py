import hashlib
import random
import time
from collections import Counter

import pytest

from steineraug import flow, oracle
from steineraug.external import external_augment, make_even
from steineraug.graph import EdgeAdditions, Graph, add_edges, star_graph, \
    steiner_connectivity
from steineraug.pipeline import (RejectedInstanceError, _cut_edge_neighbours,
                                 _pair_leftover, _remove_vertex,
                                 augment_pipeline, splitoff_pipeline)
from steineraug.supreme import supreme_forest

from conftest import (g_cyc4, g_cycle, g_path, g_split, random_connected,
                      tree_plus_2n)
from terminal_matching import augment_by_one


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


def test_augment_tau1_optimum_over_terminal_components():
    # Disjoint corpus graphs, each a terminal component, plus one part
    # whose terminals are dropped: joining the components is optimal.
    for idx in range(30):
        parts = [random_connected(4 * idx + j, n_max=6)
                 for j in range(2 + idx % 3)] + [random_connected(4 * idx + 3)]
        edges, terminals, off = [], [], 0
        for j, h in enumerate(parts):
            edges += [(u + off, v + off, w) for (u, v, w) in h.edges]
            if j < len(parts) - 1:
                terminals += [t + off for t in h.terminals]
            off += h.n
        g = Graph.build(off, edges, terminals)
        adds, report = augment_pipeline(g, 1, seed=idx)
        assert adds.total_weight == report["optimum"] == len(parts) - 2
        assert oracle.verify_solution(g, 1, adds)[0]


def test_augment_report_fields_and_determinism():
    a1, r1 = augment_pipeline(g_cyc4(), 4, seed=9)
    a2, r2 = augment_pipeline(g_cyc4(), 4, seed=9)
    assert a1 == a2 and r1 == r2
    for key in ("tau", "seed", "phases", "k", "optimum",
                "initial_connectivity", "total_weight", "max_flow_calls"):
        assert key in r1


def _disconnected(idx: int, w_max: int = 5) -> Graph:
    """Two or three corpus graphs side by side, terminals of each kept,
    so the Steiner connectivity is 0."""
    parts = [random_connected(3 * idx + j, n_max=5, w_max=w_max)
             for j in range(2 + idx % 2)]
    edges, terminals, off = [], [], 0
    for h in parts:
        edges += [(u + off, v + off, w) for (u, v, w) in h.edges]
        terminals += [t + off for t in h.terminals]
        off += h.n
    return Graph.build(off, edges, terminals)


@pytest.mark.parametrize("w_max", [2, 3, 4, 5])
def test_initial_connectivity_is_read_off_the_recursion_root(w_max):
    """`initial_connectivity`, decoded from the root of the supreme
    recursion, is lambda(g), at split roots and base-case roots, below tau
    and at tau, on corpora of weights up to `w_max`."""
    graphs = ([random_connected(i, w_max=w_max) for i in range(120)]
              + [_disconnected(i, w_max) for i in range(30)])
    roots = Counter()
    for idx, g in enumerate(graphs):
        conn = steiner_connectivity(g)
        roots[len(g.terminals) > 3] += 1
        for tau in {conn + 1, max(conn, 2)}:
            if tau < 2:
                continue
            _, report = augment_pipeline(g, tau)
            assert report["initial_connectivity"] == conn, (idx, tau)
    assert roots[True] >= 10 and roots[False] >= 10, roots


def test_connected_enough_costs_a_flow_tree_and_a_sweep_at_a_split_root():
    """lambda(g) >= tau at a root of 4 or more terminals, which splits:
    the root's flow tree, |T| - 1 flows, decides it, one growing-sink
    sweep, |T| - 1 more, makes lambda(g) exact, and no edge is added.
    Roots of 4 and 5 terminals are among them."""
    graphs = [g_cycle(8)] + [g for g in map(random_connected, range(200))
                             if len(g.terminals) >= 4]
    assert sum(len(g.terminals) in (4, 5) for g in graphs) >= 10
    for idx, g in enumerate(graphs):
        conn = steiner_connectivity(g)
        for tau in range(2, conn + 1):
            before = flow.max_flow_call_count()
            adds, report = augment_pipeline(g, tau)
            assert adds.entries == () and report["total_weight"] == 0, idx
            assert report["initial_connectivity"] == conn, idx
            assert report["max_flow_calls"] == \
                2 * (len(g.terminals) - 1), idx
            assert flow.max_flow_call_count() - before == \
                2 * (len(g.terminals) - 1), idx


def test_augment_asks_no_connectivity_before_the_matching(monkeypatch):
    """The supreme recursion answers lambda(g) below tau: no
    `steiner_connectivity` call is made before the +1 matching, which
    checks its own steps.  At lambda(g) >= tau exactly one call, the
    growing-sink sweep that makes lambda(g) exact, is made."""
    from steineraug import deg_chains, graph, pipeline
    log: list[str] = []

    def logged(name, fn):
        def wrapper(*args, **kwargs):
            log.append(name)
            return fn(*args, **kwargs)
        return wrapper

    for module in (graph, pipeline):
        monkeypatch.setattr(module, "steiner_connectivity",
                            logged("connectivity", steiner_connectivity))
    monkeypatch.setattr(deg_chains, "deg_augment_by_one",
                        logged("matching", deg_chains.deg_augment_by_one))
    matched = 0
    cases = [(g_cycle(8), 2), (g_cycle(8), 3), (g_cyc4(), 3), (g_cyc4(), 4)]
    for idx in range(40):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        cases += [(g, tau) for tau in (conn, conn + 1, conn + 3) if tau >= 2]
    enough = 0
    for g, tau in cases:
        log.clear()
        augment_pipeline(g, tau)
        if steiner_connectivity(g) >= tau:
            assert log == ["connectivity"], (g, tau, log)
            enough += 1
            continue
        before = log[:log.index("matching")] if "matching" in log else log
        assert "connectivity" not in before, (g, tau, log)
        matched += "matching" in log
    assert matched >= 20 and enough >= 20, (matched, enough)


def _augment_corpus():
    """(g, tau, seed): the corpus at lambda + 1..3, test_08's generator at
    n = 20..300 at conn + 1 and conn + 3, and the 7-cycle at tau = 3."""
    for idx in range(300):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        yield from ((g, conn + bump, idx) for bump in (1, 2, 3))
    for n in range(20, 301, 20):
        g = tree_plus_2n(n, 31337 + n, n // 3)
        conn = steiner_connectivity(g)
        yield from ((g, conn + bump, n) for bump in (1, 3))
    yield g_cycle(7), 3, 0


def _overdrawn(g, tau, adds) -> list[int]:
    """Vertices given more edges than the even external star gave them."""
    forest = supreme_forest(g, tau=tau)
    forest.compute_rdem(tau)
    beta = make_even(external_augment(forest, tau)).beta
    deg = Counter()
    for (u, v, w) in adds.entries:
        deg[u] += w
        deg[v] += w
    return [u for u, d in sorted(deg.items()) if d > beta.get(u, 0)]


def test_augment_splits_off_its_even_external_star():
    """No vertex gets more augmenting edges than the even external
    solution gave it: the +1 step spends what the chains left of it."""
    cases = list(_augment_corpus())
    assert len(cases) == 931
    for g, tau, seed in cases:
        adds, _ = augment_pipeline(g, tau, seed=seed)
        assert _overdrawn(g, tau, adds) == [], (g, tau, adds)


def test_augment_keeps_the_terminal_matching_on_even_groups(monkeypatch):
    """Against the terminal matching (`terminal_matching`), which attached
    each edge to a terminal and the odd edge to a random pair: the same
    edges whenever the number of demand-1 groups is even; otherwise the
    same weight and lambda(g + F) >= tau.  Exactly the solves where the
    terminal matching overdrew the even external star change: 28 of the
    930 corpus solves, and the 7-cycle."""
    from steineraug import deg_chains
    cases = list(_augment_corpus())
    outputs = [augment_pipeline(g, tau, seed=seed)[0]
               for g, tau, seed in cases]
    groups: list[int] = []

    def terminal_step(g1, tau, rem, K, rng, classes=None):
        groups.append(len(K))
        return augment_by_one(g1, K, tau, rng, beta=rem, classes=classes)

    monkeypatch.setattr(deg_chains, "deg_augment_by_one", terminal_step)
    changed = 0
    for (g, tau, seed), adds in zip(cases, outputs):
        groups.clear()
        ref, _ = augment_pipeline(g, tau, seed=seed)
        if groups and groups[0] % 2 == 1:
            assert adds.total_weight == ref.total_weight, (g, tau)
            assert steiner_connectivity(add_edges(g, adds)) >= tau, (g, tau)
        else:
            assert adds == ref, (g, tau)
        assert (adds != ref) == bool(_overdrawn(g, tau, ref)), (g, tau)
        changed += adds != ref
    assert changed == 29


def test_each_pipeline_splits_off_once_below_tau(monkeypatch):
    """Both pipelines end in one `deg_chains.split_off` call when
    lambda(g) < tau and tau >= 2, and make none otherwise (tau = 1 joins
    components, and a g already tau-connected needs nothing)."""
    from steineraug import deg_chains, pipeline
    real = deg_chains.split_off
    calls: list[int] = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "split_off", counted)
    seen = Counter()
    split = Graph.build(4, [(0, 1, 2)], range(4))
    for g in [split] + [random_connected(idx) for idx in range(40)]:
        conn = steiner_connectivity(g)
        for tau in range(1, conn + 4):
            calls.clear()
            augment_pipeline(g, tau)
            expect = int(conn < tau and tau >= 2)
            assert len(calls) == expect, (g, tau)
            seen["augment", expect] += 1
        if conn < 1:
            continue
        forest = supreme_forest(g)
        forest.compute_rdem(conn + 2)
        stars = [make_even(external_augment(forest, conn + 2)).beta]
        stars += [{u: 1, (u + 1) % g.n: 1} for u in range(g.n)]
        for beta in stars:
            gx, x = star_graph(g, beta)
            calls.clear()
            try:
                _, report = splitoff_pipeline(gx, x)
            except RejectedInstanceError:
                continue
            tau = report["tau"]
            expect = int(conn < tau and tau >= 2)
            assert len(calls) == expect, (g, beta)
            seen["splitoff", expect] += 1
    assert min(seen.values()) >= 20 and len(seen) == 4, seen


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


def _star7() -> Graph:
    """x = 6 joined to 0 and 2: splitting it off runs the chains and the
    +1 matching."""
    return Graph.build(7, [(0, 1, 2), (0, 2, 1), (0, 3, 3), (2, 4, 2),
                           (1, 5, 4), (0, 4, 3), (3, 5, 5), (0, 6, 2),
                           (2, 6, 2)], range(6))


def test_splitoff_skips_the_feasibility_check_of_x_star(monkeypatch):
    """x's own star reaches tau = lambda(g + x), so the pipeline skips
    deg_external_augment's check.  With vertex 0 a nonterminal that check
    is the literal sweep, |T| - 1 flows fewer than with it; on `_star7`,
    whose star lies on terminals, it is read off the forest at no flow."""
    from steineraug import deg_external, pipeline
    off = Graph.build(7, _star7().edges, range(1, 6))
    plain = [splitoff_pipeline(gx, 6) for gx in (off, _star7())]
    monkeypatch.setattr(pipeline, "_augment_feasible",
                        deg_external.deg_external_augment)
    for gx, extra, (adds, report) in zip((off, _star7()),
                                         (len(off.terminals) - 1, 0), plain):
        adds_checked, report_checked = splitoff_pipeline(gx, 6)
        assert adds == adds_checked and report["phases"]["matching"] >= 1
        assert report_checked["max_flow_calls"] - \
            report["max_flow_calls"] == extra, gx.terminals


def test_matching_over_budget_raises(monkeypatch):
    # The guard on x's budget after the matching must trip, also under -O.
    from steineraug import deg_chains
    real = deg_chains.deg_augment_by_one

    def overspend(g, tau, rem, K_prime, rng, **kwargs):
        adds = real(g, tau, rem, K_prime, rng, **kwargs)
        u = min(v for v, w in rem.items() if w > 0)
        extra = rem[u] - adds.degree(u) + 1    # one unit past u's budget
        return adds.combine(EdgeAdditions(((u, 5, extra),)))

    monkeypatch.setattr(deg_chains, "deg_augment_by_one", overspend)
    with pytest.raises(RuntimeError, match="exceed x's budget at"):
        splitoff_pipeline(_star7(), 6)


def test_splitoff_at_tau_0_builds_no_forest():
    """Terminals in 14 components give tau = 0, where lambda(g) < tau
    cannot hold: terminal 3 has degree 0, so U = 0 gives tau at no flow,
    the star is paired as leftover, and the supreme recursion is not
    run."""
    edges = [(0, 1, 1), (1, 2, 1), (2, 0, 1), (0, 16, 1), (1, 16, 1)]
    gx = Graph.build(17, edges, [0] + list(range(3, 16)))
    adds, report = splitoff_pipeline(gx, 16)
    assert adds.entries == ((0, 1, 1),) and report["tau"] == 0, report
    assert report["max_flow_calls"] == 0 and "supreme" not in report


@pytest.mark.parametrize("k", range(2, 7))
def test_splitoff_path_star_at_tau_1(k):
    """k unit paths 3c-3c+1-3c+2 of terminals, x joined to 3c and 3c+1 of
    each: lambda(G) = 1, and the split edges must join the k terminal
    components, which no matching of 4 or more components does.  They
    join them in a path with no supreme forest: the only flows are
    lambda(G)'s 3k - 1."""
    edges = [(3 * c + i, 3 * c + i + 1, 1) for c in range(k) for i in (0, 1)]
    g = Graph.build(3 * k, edges, range(3 * k))
    beta = {3 * c + i: 1 for c in range(k) for i in (0, 1)}
    gx, x = star_graph(g, beta)
    adds, report = splitoff_pipeline(gx, x)
    assert report["tau"] == 1 and adds.total_weight == k, report
    assert oracle.verify_solution(g, 1, adds, beta)[0]
    assert report["max_flow_calls"] == 3 * k - 1, report
    assert "supreme" not in report and report["phases"]["tree"] == k - 1


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


def _cut_edge_neighbours_by_flow(g, x):
    """Flow definition: the x-u edges are cut edges iff no flow joins x
    and u once all of them are removed."""
    out = []
    for (u, v) in g.coalesced():
        if x not in (u, v):
            continue
        other = v if u == x else u
        rest = tuple(e for e in g.edges if {e[0], e[1]} != {x, other})
        probe = Graph.build(g.n, rest, sorted(g.terminals))
        net = flow.FlowNetwork.undirected(probe)
        if flow.max_flow(net, {x}, {other}).value == 0:
            out.append(other)
    return out


def test_cut_edge_precheck_matches_flow_definition():
    stars = []
    for idx in range(40):                 # test_04-style stars
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        tau = conn + 1 + (idx % 2)
        if conn < 1 or tau < 2:
            continue
        forest = supreme_forest(g)
        forest.compute_rdem(tau)
        beta = make_even(external_augment(forest, tau)).beta
        stars.append(star_graph(g, beta))
    # Parallel x-u edges over a base with two components {0,1}, {2,3,4}.
    base = ((0, 1, 1), (2, 3, 1), (3, 4, 2))
    for extra in (((0, 5, 1), (0, 5, 1)),
                  ((0, 5, 1), (0, 5, 1), (2, 5, 1), (4, 5, 1)),
                  ((0, 5, 1), (1, 5, 2), (2, 5, 1), (2, 5, 1))):
        stars.append((Graph.build(6, base + extra, [0, 2]), 5))
    found = set()
    for g, x in stars:
        cut = _cut_edge_neighbours(*_remove_vertex(g, x)[:2])
        assert cut == _cut_edge_neighbours_by_flow(g, x), g
        found.add(bool(cut))
    assert found == {False, True}


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
        f = supreme_forest(g)
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
    assert _digest(rows) == "9f2db4bb7a0b91e3"


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
        forest = supreme_forest(g)
        forest.compute_rdem(tau)
        beta = make_even(external_augment(forest, tau)).beta
        if len([u for u, w in beta.items() if w > 0]) < 2:
            continue
        gx, x = star_graph(g, beta)
        adds, _ = splitoff_pipeline(gx, x, seed=idx)
        rows.append((idx, sorted(adds.merged().entries)))
    assert len(rows) == 30
    assert _digest(rows) == "4adbca9736dce990"


def unit_leftover_pairs(remaining):
    """Reference: pair the leftover budget one unit at a time, always
    joining the two largest remainders (ties: smaller id)."""
    remaining = dict(remaining)
    pairs = Counter()
    while True:
        live = sorted((u for u, w in remaining.items() if w > 0),
                      key=lambda u: (-remaining[u], u))
        if not live:
            return pairs, 0
        if len(live) == 1:
            return pairs, remaining[live[0]]
        u, v = live[0], live[1]
        pairs[min(u, v), max(u, v)] += 1
        remaining[u] -= 1
        remaining[v] -= 1


def test_leftover_pairing_meets_its_spec():
    """Any self-loop-free pairing will do; the unit loop fixes only the
    number of units left unpaired."""
    rng = random.Random(11)
    for _ in range(3000):
        base = rng.randint(0, 60)
        spread = rng.choice([0, 1, 2, 5, 60])
        remaining = {rng.randrange(30): max(0, base + rng.randint(-spread,
                                                                  spread))
                     for _ in range(rng.randint(0, 12))}
        if rng.random() < 0.3:           # one vertex far above the rest
            remaining[rng.randrange(30)] = rng.randint(0, 400)
        pairs, dropped = _pair_leftover(remaining)
        assert dropped == unit_leftover_pairs(remaining)[1]
        paired = Counter()
        for (u, v), c in pairs.items():
            assert u < v and c > 0, (remaining, pairs)
            paired[u] += c
            paired[v] += c
        unpaired = {u: w - paired[u] for u, w in remaining.items()
                    if w != paired[u]}
        assert all(w > 0 for w in unpaired.values()), (remaining, pairs)
        assert sum(unpaired.values()) == dropped and len(unpaired) <= 1
        assert len(pairs) <= sum(1 for w in remaining.values() if w > 0)


def _leftover_star(W):
    """x (vertex 5) joined to 2, 3 and 4 with W, W - 2 and 4: the graph
    without x already has the Steiner connectivity 1 of the graph with
    x, so all of x's budget reaches the leftover pairing."""
    edges = [(0, 1, 1), (1, 2, 1), (1, 3, 1), (1, 4, 1),
             (2, 5, W), (3, 5, W - 2), (4, 5, 4)]
    return Graph.build(6, edges, [0, 1])


def _leftover_star_edges(W):
    return [(2, 3, W - 3), (2, 4, 3), (3, 4, 1)]


def test_leftover_star_matches_unit_loop_on_small_weights():
    for W in range(6, 30):
        pairs, dropped = unit_leftover_pairs({2: W, 3: W - 2, 4: 4})
        assert dropped == 0
        assert sorted((u, v, c) for (u, v), c in pairs.items()) == \
            _leftover_star_edges(W)
        adds, report = splitoff_pipeline(_leftover_star(W), 5, seed=0)
        assert report["phases"] == {"leftover": W + 1}
        assert list(adds.merged().entries) == _leftover_star_edges(W)


def test_leftover_pairing_at_a_billion_is_fast():
    W = 10 ** 9
    start = time.perf_counter()
    adds, report = splitoff_pipeline(_leftover_star(W), 5, seed=0)
    assert time.perf_counter() - start < 2.0
    assert report["phases"] == {"leftover": W + 1}
    assert list(adds.merged().entries) == _leftover_star_edges(W)


def test_leftover_pairing_of_a_wide_star_is_fast():
    """x joined to 300 neighbours of g with budgets of 10^8..10^9."""
    rng = random.Random(300)
    budgets = [rng.randint(10 ** 8, 10 ** 9) for _ in range(300)]
    budgets[0] += sum(budgets) % 2
    x = 302
    edges = [(0, 1, 1)] + [(1, u, 1) for u in range(2, x)] + \
        [(u, x, w) for u, w in enumerate(budgets, 2)]
    dx = sum(budgets)
    start = time.perf_counter()
    adds, report = splitoff_pipeline(Graph.build(x + 1, edges, [0, 1]), x)
    assert time.perf_counter() - start < 2.0
    assert report["phases"] == {"leftover": dx // 2}
    assert [adds.degree(u) for u in range(2, x)] == budgets
    assert len(adds.merged().entries) <= 300


def test_leftover_of_a_dominant_vertex_is_dropped_as_self_loops():
    """x's budget at 2 (10) exceeds the rest (2): 2 pairs with 3 for both
    of 3's units and keeps 8 units, 4 self-loops at x."""
    gx = Graph.build(5, [(0, 1, 1), (1, 2, 1), (1, 3, 1), (2, 4, 10),
                         (3, 4, 2)], [0, 1])
    adds, report = splitoff_pipeline(gx, 4)
    assert adds.entries == ((2, 3, 2),)
    assert report["self_loops_dropped"] == 4 and report["total_weight"] == 2

