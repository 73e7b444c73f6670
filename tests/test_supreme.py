import copy
import itertools
import math
import random

import pytest

from steineraug import flow, oracle
from steineraug.forest import LaminarForest
from steineraug.graph import (Graph, cut_value, is_steiner_cut, projection,
                              steiner_connectivity)
from steineraug.pipeline import augment_pipeline, splitoff_pipeline
from steineraug.supreme import (_base_case, _balanced_split, _contract,
                                _crossing_repair, _flow_tree,
                                find_supreme_candidates, perturb,
                                postprocess, supreme_forest)

from conftest import (g_cycle, g_cyc4, g_expo, g_path, random_connected,
                      tree_plus_2n)


def forest_signature(f):
    return sorted((tuple(sorted(f.nodes[i].terminals)), f.nodes[i].c)
                  for i in f.live())


def test_perturbation_preserves_order_and_breaks_ties():
    """w~ = 2^m*w + 2^i: original weights decode as w~ >> m, unequal cut
    values keep their order, and every vertex subset of small graphs,
    disconnected ones and ones of equal weights among them, has a value
    that only its crossing-edge set shares."""
    rng = random.Random(12)
    graphs = [g_cyc4(), g_path(), g_expo(5)]
    for _ in range(60):
        n = rng.randint(2, 8)
        graphs.append(Graph.build(n, _random_multigraph(rng, n, rng.choice((1, 3))),
                                  range(n)))
    for g in graphs:
        pg = perturb(g)
        coal = g.coalesced()
        assert pg.scale == 1 << len(coal)
        assert {e: w >> len(coal) for e, w in pg.weights.items()} == coal
        by_value: dict[int, frozenset] = {}
        cuts = []
        for r in range(1, g.n):
            for X in itertools.combinations(range(g.n), r):
                crossing = frozenset(e for e in coal if (e[0] in X) != (e[1] in X))
                value = pg.cut_value(X)
                assert by_value.setdefault(value, crossing) == crossing
                cuts.append((cut_value(g, X), value))
        for (d1, v1), (d2, v2) in itertools.combinations(cuts, 2):
            if d1 != d2:
                assert (d1 < d2) == (v1 < v2)


def test_supreme_forest_fixtures():
    for g in (g_path(), g_cyc4(), g_expo(5), g_expo(6)):
        f = supreme_forest(g)
        assert forest_signature(f) == forest_signature(
            oracle.supreme_sets_bruteforce(g))


def test_supreme_forest_expo5_vertex_sets():
    f = supreme_forest(g_expo(5))
    by_terms = {f.nodes[r].terminals: f.nodes[r] for r in f.roots()}
    assert by_terms[frozenset({0})].mu_tilde == frozenset({0, 1, 2, 3})
    assert by_terms[frozenset({0})].c == 3
    assert by_terms[frozenset({4})].c == 3


def test_supreme_forest_small_base_case_recursion():
    """Every node of 4 or more terminals splits, so the base cases have
    at most 3 terminals and a root of 4 or more recurses."""
    for idx in range(25):
        g = random_connected(idx, n_max=10)
        stats: dict = {}
        f = supreme_forest(g, stats=stats)
        assert forest_signature(f) == forest_signature(
            oracle.supreme_sets_bruteforce(g))
        assert max(stats["base_cases"]) <= 3, (idx, stats["base_cases"])
        assert (stats["max_depth"] >= 1) == (len(g.terminals) >= 4), idx


def test_supreme_forest_mu_cut_values_match():
    for idx in range(20):
        g = random_connected(idx, n_max=9)
        f = supreme_forest(g)
        for i in f.live():
            nd = f.nodes[i]
            assert cut_value(g, nd.mu_tilde) == nd.c
            assert nd.terminals == nd.mu_tilde & g.terminals


def singletons(g):
    return [frozenset({v}) for v in range(g.n)]


def test_contract_single_vertex_is_isomorphic():
    g = g_path()
    weights = g.coalesced()
    phi, terminals, w2, labels = _contract([frozenset({1})], g.terminals,
                                           weights, singletons(g))
    # The labels give the vertex map, here a bijection moving 1 last.
    assert labels == [frozenset({0}), frozenset({2}), frozenset({1})]
    assert phi == {next(iter(L)): i for i, L in enumerate(labels)}
    assert terminals == {phi[t] for t in g.terminals}
    assert w2 == {tuple(sorted((phi[u], phi[v]))): w
                  for (u, v), w in weights.items()}


def test_contract_merges_and_drops_loops():
    g = g_cyc4()
    phi, terminals, w2, labels = _contract([frozenset({0, 1})], g.terminals,
                                           g.coalesced(), singletons(g))
    assert labels == [frozenset({2}), frozenset({3}), frozenset({0, 1})]
    assert phi == {0: 2, 1: 2, 2: 0, 3: 1}
    assert terminals == {0, 1, 2}
    # The (0,1) edge became a self-loop and is gone.
    assert w2 == {(0, 1): 1, (0, 2): 1, (1, 2): 1}
    # Merging opposite corners makes parallel edges, which are summed.
    _, _, w2, _ = _contract([frozenset({0, 2})], g.terminals, g.coalesced(),
                            singletons(g))
    assert w2 == {(0, 2): 2, (1, 2): 2}
    # Two parts at once, as for the tau-classes: each becomes one vertex,
    # in the order given, after the vertices of no part.
    g = g_cycle(6)
    phi, terminals, w2, labels = _contract(
        [frozenset({4, 5}), frozenset({0, 1})], g.terminals, g.coalesced(),
        singletons(g))
    assert labels == [frozenset({2}), frozenset({3}), frozenset({4, 5}),
                      frozenset({0, 1})]
    assert terminals == frozenset(range(4))
    assert w2 == {(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}


def test_needs_two_terminals():
    g = Graph.build(2, [(0, 1, 1)], [0])
    with pytest.raises(ValueError):
        supreme_forest(g)


def _crossing_repair_restart(sets, cut_fn):
    """Reference: rescan from the first pair after every removal."""
    fam = list(dict.fromkeys(sets))
    removed = [False] * len(fam)
    changed = True
    while changed:
        changed = False
        for i in range(len(fam)):
            if removed[i]:
                continue
            for j in range(i + 1, len(fam)):
                if removed[j]:
                    continue
                X, Y = fam[i], fam[j]
                if not (X & Y and X - Y and Y - X):
                    continue
                if cut_fn(X - Y) <= cut_fn(X):
                    removed[i] = True
                else:
                    removed[j] = True
                changed = True
                break
            if changed:
                break
    return [fam[i] for i in range(len(fam)) if not removed[i]]


def _base_family(g, weights):
    """Reference: one earliest min cut per ordered terminal bipartition."""
    ts = sorted(g.terminals)
    fam = []
    for mask in range(1, (1 << len(ts)) - 1):
        T1 = frozenset(t for i, t in enumerate(ts) if (mask >> i) & 1)
        X = flow.earliest_min_cut(g, T1, frozenset(ts) - T1, weights)
        if X not in fam:
            fam.append(X)
    return fam


def _weight_cut(weights):
    def by_set(S):
        return sum(w for (u, v), w in weights.items() if (u in S) != (v in S))

    def by_mask(M):
        return by_set({v for v in range(M.bit_length()) if (M >> v) & 1})
    return by_set, by_mask


def test_crossing_repair_single_pass_matches_restart_random_families():
    rng = random.Random(7)
    for trial in range(300):
        n = rng.randint(2, 9)
        weights = {(u, v): rng.randint(1, 4)
                   for u, v in itertools.combinations(range(n), 2)
                   if rng.random() < 0.6}
        sets = [frozenset(v for v in range(n) if rng.random() < 0.5)
                for _ in range(rng.randint(0, 25))]
        sets = [X for X in sets if X]
        by_set, by_mask = _weight_cut(weights)
        assert _crossing_repair(sets, by_mask) == \
            _crossing_repair_restart(sets, by_set), trial


def test_crossing_repair_single_pass_matches_restart_base_families():
    crossing = 0
    for idx in range(60):
        g = random_connected(idx)
        pg = perturb(g)
        fam = _base_family(g, pg.weights)
        by_set, by_mask = _weight_cut(pg.weights)
        want = _crossing_repair_restart(fam, by_set)
        crossing += len(want) < len(fam)
        assert _crossing_repair(fam, by_mask) == want
        net = flow.FlowNetwork.undirected(g, pg.weights)
        fam, low = _base_case(net, sorted(g.terminals))
        assert fam == want
        assert low == min(by_set(X) for r in range(1, g.n)
                          for X in itertools.combinations(range(g.n), r)
                          if is_steiner_cut(g, X))
    assert crossing > 0


def test_base_case_one_flow_per_complementary_pair():
    for idx in range(20):
        g = random_connected(idx)
        k = len(g.terminals)
        before = flow.max_flow_call_count()
        net = flow.FlowNetwork.undirected(g, perturb(g).weights)
        _base_case(net, sorted(g.terminals))
        assert flow.max_flow_call_count() - before == 2 ** (k - 1) - 1


def _lambda_row(tree, s):
    """lambda(s, u) for every other terminal u: path minima from s."""
    row = {s: math.inf}
    stack = [s]
    while stack:
        u = stack.pop()
        for v, c in tree[u]:
            if v not in row:
                row[v] = min(row[u], c)
                stack.append(v)
    del row[s]
    return row


def _naive_row(net, ts, s):
    """lambda(s, u) for every other terminal u, one flow each."""
    return {u: flow.max_flow(net, (s,), (u,)).value for u in ts if u != s}


def _random_multigraph(rng, n, w_max):
    """Random edges with repeats; w_max 1 makes every weight equal."""
    return [(*rng.sample(range(n), 2), rng.randint(1, w_max))
            for _ in range(rng.randint(n, 3 * n))]


def test_flow_tree_rows_match_naive_rows():
    """Every ordered terminal pair: the tree's path minimum equals the
    direct flow, with tied (equal) weights, terminals split over two
    components (lambda = 0) and perturbed weights.  A tree whose flows
    stop at a limit H gives min(lambda, H), its stopped edges have the
    value H, and with `keep` it returns the stopped solves only while no
    edge is exact."""
    rng = random.Random(10)
    zeros = stopped = 0
    for i in range(90):
        n = rng.randint(4, 12)
        if i % 3 == 0:
            arcs = _random_multigraph(rng, n, 1)
        elif i % 3 == 1:
            h = n // 2
            arcs = ([(u, v, w) for u, v, w in _random_multigraph(rng, h, 3)]
                    + [(u + h, v + h, w)
                       for u, v, w in _random_multigraph(rng, n - h, 3)])
        else:
            g = random_connected(i)
            n, arcs = g.n, [(u, v, w) for (u, v), w
                            in perturb(g).weights.items()]
        net = flow.FlowNetwork(n, arcs, False)
        ts = sorted(rng.sample(range(n), rng.randint(2, n)))
        tree, _ = _flow_tree(net, ts)
        rows = {s: _naive_row(net, ts, s) for s in ts}
        for s in ts:
            assert _lambda_row(tree, s) == rows[s], (i, s)
            zeros += 0 in rows[s].values()
        values = sorted({c for row in rows.values() for c in row.values()})
        for H in {values[0] + 1, values[len(values) // 2], values[-1]}:
            capped, kept = _flow_tree(net, ts, H, keep=True)
            for s in ts:
                assert _lambda_row(capped, s) == \
                    {u: min(c, H) for u, c in rows[s].items()}, (i, s, H)
            edges = [c for s in ts for _, c in capped[s]]
            assert max(edges) <= H
            exact = any(c < H for c in edges)
            assert len(kept) == (0 if exact else len(ts) - 1), (i, H)
            assert all(r.source_side is None for r in kept)
            stopped += edges.count(H) // 2
    assert zeros > 0 and stopped > 0


def _most_balanced_threshold_set(tree, ts):
    """Reference: every set {s} + {u : lambda(s, u) >= phi} with phi > 0,
    from every row; the one with the largest smaller side of at least 2
    and |T|/16 terminals, then the smaller least terminal, or None."""
    k, best = len(ts), None
    for s in ts:
        row = _lambda_row(tree, s)
        for phi in {c for c in row.values() if c > 0}:
            C = frozenset({s} | {u for u, c in row.items() if c >= phi})
            side = min(len(C), k - len(C))
            if side >= 2 and 16 * side >= k and (
                    best is None or (side, -min(C)) > best[0]):
                best = ((side, -min(C)), C)
    return best and best[1]


def _two_clusters():
    """K4 on 4..7 (weight 3) and K4 on 0..3 (weight 2), joined by an edge:
    both clusters are threshold sets of 4 of the 8 terminals."""
    edges = [(u + o, v + o, w) for o, w in ((4, 3), (0, 2))
             for u, v in itertools.combinations(range(4), 2)]
    return Graph.build(8, edges + [(3, 4, 1)], range(8))


def test_balanced_split_costs_one_tree_and_one_split():
    """|T| - 1 flows for the equivalent-flow tree and one for the split,
    whose source side holds the most balanced threshold set of the tree
    and no other terminal; of two equally balanced ones, the one with the
    smaller least terminal, though the other forms first."""
    graphs = [tree_plus_2n(30, 500 + i, 12) for i in range(30)]
    for i, g in enumerate(graphs + [_two_clusters()]):
        net = flow.FlowNetwork.undirected(g, perturb(g).weights)
        ts = sorted(g.terminals)
        before = flow.max_flow_call_count()
        tree, _ = _flow_tree(net, ts)
        side = _balanced_split(net, ts, tree)
        calls = flow.max_flow_call_count() - before
        assert calls == len(ts), (i, calls)
        want = _most_balanced_threshold_set(tree, ts)
        assert want is not None, i
        assert side & g.terminals == want, i
    assert want == {0, 1, 2, 3}


def test_balanced_split_raises_on_tied_tree_values():
    """Tied positive values would make the threshold sets depend on the
    join order; the perturbation rules them out, and a tie raises."""
    tree = {0: [(1, 5)], 1: [(0, 5), (2, 5)], 2: [(1, 5), (3, 3)],
            3: [(2, 3)]}
    with pytest.raises(RuntimeError, match="tied"):
        _balanced_split(None, [0, 1, 2, 3], tree)


def test_balanced_split_joins_zero_edges():
    """A flow tree whose every edge is 0 (terminals in k components): the
    zero edges are joined like any other, without a tie error, and the
    split leaves >= 2 and >= k/16 terminals on each side."""
    rng = random.Random(14)
    for k in range(4, 41):
        ts = list(range(k))
        net = flow.FlowNetwork(k, [], False)
        for shape in ("path", "star", "random"):
            tree: dict = {t: [] for t in ts}
            for v in range(1, k):
                u = {"path": v - 1, "star": 0,
                     "random": rng.randrange(v)}[shape]
                tree[u].append((v, 0))
                tree[v].append((u, 0))
            side = len(_balanced_split(net, ts, tree))
            assert min(side, k - side) >= max(2, k / 16), (k, shape, side)


CORPUS_SIZE = 200


@pytest.mark.parametrize("w_max", [2, 3, 4, 5])
def test_recursion_oracle_equivalence(w_max):
    """test_01's corpus, and the same shapes with weights up to 2, 3 or 4,
    which tie more cut values: every instance matches the oracle on the
    first call; two calls give the same forest, node ids and parents
    included."""
    above = recursed = 0
    for idx in range(CORPUS_SIZE):
        g = random_connected(idx, w_max=w_max)
        stats: dict = {}
        f = supreme_forest(g, stats=stats)
        assert forest_signature(f) == forest_signature(
            oracle.supreme_sets_bruteforce(g)), idx
        if idx < 20:
            assert tree_signature(supreme_forest(g)) == tree_signature(f), idx
        above += len(g.terminals) > 3
        recursed += stats["max_depth"] >= 1
    # Every instance of 4 or more terminals splits.
    assert above >= 50 and recursed == above, (above, recursed)


DISCONNECTED_SIZE = 100


def _disconnected(idx: int, w_max: int = 5) -> Graph:
    """2-4 `random_connected` parts of at most 5 vertices and weights up to
    `w_max` plus isolated terminals, n <= 14 and |T| >= 6, in as many as
    14 components."""
    rng = random.Random(0xD15C + idx)
    parts = rng.randint(2, 4)
    edges, terminals, n = [], [], 0
    for j in range(parts):
        h = random_connected(1000 * idx + j, n_max=min(5, 12 // parts),
                             w_max=w_max)
        edges += [(u + n, v + n, w) for u, v, w in h.edges]
        terminals += [t + n for t in h.terminals]
        n += h.n
    iso = max(rng.randint(0, 14 - n), 6 - len(terminals))
    return Graph.build(n + iso, edges, terminals + list(range(n, n + iso)))


@pytest.mark.parametrize("w_max", [2, 3, 5])
def test_recursion_oracle_equivalence_disconnected(w_max):
    """Terminals in several components: every node of 4 or more terminals
    splits, on zero flow-tree edges where needed, and the forest matches
    the oracle.  Each root has a zero tree edge (two parts hold
    terminals) and splits."""
    recursed = 0
    for idx in range(DISCONNECTED_SIZE):
        g = _disconnected(idx, w_max)
        assert g.n <= 14 and len(g.terminals) > 3, idx
        stats: dict = {}
        f = supreme_forest(g, stats=stats)
        assert forest_signature(f) == forest_signature(
            oracle.supreme_sets_bruteforce(g, limit=14)), idx
        recursed += stats["max_depth"] >= 1
    assert recursed == DISCONNECTED_SIZE


@pytest.mark.parametrize("w_max", [2, 5])
def test_augment_disconnected_is_verified_and_optimal(w_max):
    """On the same corpus the augmentation reaches tau and weighs
    ceil(k/2), k the oracle's optimal external value."""
    for idx in range(0, DISCONNECTED_SIZE, 2):
        g = _disconnected(idx, w_max)
        tau = 2 + idx % 4 // 2
        adds, report = augment_pipeline(g, tau, seed=idx)
        assert oracle.verify_solution(g, tau, adds)[0], idx
        k = oracle.optimal_external_value(g, tau, limit=14)
        assert adds.total_weight == report["optimum"] == (k + 1) // 2, idx


def full_signature(f):
    return sorted((tuple(sorted(f.nodes[i].terminals)), f.nodes[i].c,
                   tuple(sorted(f.nodes[i].mu_tilde))) for i in f.live())


def test_recursion_matches_full_enumeration():
    """On one perturbation the supreme family is unique, so the recursion
    must return the forest that enumerating every bipartition of the
    root's terminals returns."""
    rng = random.Random(8)
    for i in range(40):
        n, k = rng.randint(16, 40), rng.randint(6, 11)
        g = tree_plus_2n(n, 8000 + i, k)
        pg = perturb(g)
        fam, _ = _base_case(flow.FlowNetwork.undirected(g, pg.weights),
                            sorted(g.terminals))
        stats: dict = {}
        f = supreme_forest(g, stats=stats)
        assert full_signature(f) == full_signature(postprocess(fam, g, pg)), i
        assert stats["max_depth"] >= 1, i


@pytest.mark.parametrize("base_case", [-1, 0, 1, 13])
def test_base_case_out_of_range_raises(base_case):
    """The stopping rule is fixed: the functions that took a `base_case`
    refuse it, whatever its value, instead of ignoring it."""
    g = g_cycle(8)
    calls = [lambda: supreme_forest(g, base_case=base_case),
             lambda: find_supreme_candidates(perturb(g), base_case=base_case),
             lambda: augment_pipeline(g, 3, base_case=base_case),
             lambda: splitoff_pipeline(g, 7, base_case=base_case)]
    for call in calls:
        with pytest.raises(TypeError, match="base_case"):
            call()


def test_pipeline_reports_recursion_within_bounds():
    """What the recursion did, on test_08's n=200 instance, within the
    depth and layer bounds that `supreme_forest` asserts."""
    n = 200
    g = tree_plus_2n(n, 31337 + n, n // 3)
    _, report = augment_pipeline(g, steiner_connectivity(g) + 1, seed=n)
    rec = report["supreme"]
    # The root merges its 66 terminals into 2 tau-classes, a base case
    # at depth 0; without tau the recursion goes down.
    assert rec["max_depth"] <= 25 * math.log(n // 3) + 5
    assert rec["merged"] > 0 and rec["capped"] >= rec["merged"], rec
    stats: dict = {}
    supreme_forest(g, stats=stats)
    assert 1 <= stats["max_depth"] <= 25 * math.log(n // 3) + 5
    assert 0 < rec["max_layer_vertices"] <= 8 * n * math.log(n)
    sizes = {int(k): c for k, c in rec["base_cases"].items()}
    assert sizes and max(sizes) <= 3, sizes
    assert min(sizes) >= 2


def _rdem_signature(f, tau):
    """Each node left by `compute_rdem(tau)`, by value, not by id."""
    f.compute_rdem(tau)
    out = []
    for i in f.live():
        nd = f.nodes[i]
        up = (None if nd.parent is None
              else sorted(f.nodes[nd.parent].terminals))
        out.append((sorted(nd.terminals), up, nd.c, nd.rdem,
                    sorted(nd.mu_tilde)))
    return sorted(out)


def test_perturbed_scale_decides_tau():
    """lambda >= tau exactly when the perturbed lambda exceeds tau*scale,
    for every terminal pair and tau around lambda."""
    for idx in range(60):
        g = random_connected(idx)
        pg = perturb(g)
        exact = flow.FlowNetwork.undirected(g)
        tilde = flow.FlowNetwork.undirected(g, pg.weights)
        s, *rest = sorted(g.terminals)
        for t in rest:
            lam = flow.max_flow(exact, (s,), (t,)).value
            lam_tilde = flow.max_flow(tilde, (s,), (t,)).value
            for tau in (lam - 1, lam, lam + 1):
                assert (lam >= tau) == (lam_tilde > tau * pg.scale), idx


@pytest.mark.parametrize("w_max", [2, 3, 5])
def test_truncated_forest_equals_full_after_rdem(w_max):
    """With tau the recursion merges the tau-classes its flow trees show
    and prunes nodes of one class; what `compute_rdem(tau)` leaves is the
    full forest's, and the truncated run makes no more flows.  `w_max`
    bounds the corpus weights, and picks the test_08 graphs."""
    graphs = ([random_connected(i, w_max=w_max) for i in range(400)]
              + [random_connected(i, n_max=14, w_max=w_max)
                 for i in range(150)]
              + [tree_plus_2n(30, 900 + 100 * w_max + i, 10)
                 for i in range(40)])
    acted = 0
    for idx, g in enumerate(graphs):
        conn = steiner_connectivity(g)
        before = flow.max_flow_call_count()
        full = supreme_forest(g)
        full_flows = flow.max_flow_call_count() - before
        for tau in range(conn + 1, conn + 4):
            stats: dict = {}
            before = flow.max_flow_call_count()
            f = supreme_forest(g, stats=stats, tau=tau)
            assert flow.max_flow_call_count() - before <= full_flows, idx
            assert _rdem_signature(f, tau) == \
                _rdem_signature(copy.deepcopy(full), tau), (idx, tau)
            acted += stats["pruned"] + stats["merged"] > 0
    assert acted >= 300, acted


def test_splitoff_star7_prunes_a_child():
    """The 7-vertex star of CI: splitting off vertex 6 merges a tau-class
    at tau = 5, in 18 flows; the forest built without tau merges, prunes
    and caps nothing, in 26 flows."""
    edges = [(0, 1, 2), (0, 2, 1), (0, 3, 3), (2, 4, 2), (1, 5, 4),
             (0, 4, 3), (3, 5, 5)]
    g = Graph.build(7, edges + [(0, 6, 2), (2, 6, 2)], range(6))
    _, report = splitoff_pipeline(g, 6)
    assert report["tau"] == 5 and report["supreme"]["merged"] >= 1, report
    assert report["max_flow_calls"] == 18, report
    stats: dict = {}
    before = flow.max_flow_call_count()
    supreme_forest(Graph.build(6, edges, range(6)), stats=stats)
    assert stats["pruned"] == stats["merged"] == stats["capped"] == 0
    assert flow.max_flow_call_count() - before == 26


def _postprocess_rebuild(candidates, g, pg, fired=None):
    """Reference for `postprocess`: rebuilds the candidate tree for each of
    the three traversals with a quadratic superset search.  `fired`, if
    given, receives the number of nodes each traversal removes."""
    sets = sorted(set(candidates), key=lambda X: (len(X), sorted(X)))
    sets = [X for X in sets if is_steiner_cut(g, X)]
    live = list(range(len(sets)))
    values_tilde = [cut_value(g, X, pg.weights) for X in sets]
    values_orig = [cut_value(g, X) for X in sets]

    def run_traversal(live_idx, remove_fn):
        cur = sorted(live_idx, key=lambda i: (len(sets[i]), sorted(sets[i])))
        parents = {}
        for i in cur:
            best = None
            for j in cur:
                if sets[i] < sets[j] and (best is None
                                          or len(sets[j]) < len(sets[best])):
                    best = j
            parents[i] = best
        children = {}
        for i in cur:
            children.setdefault(parents[i], []).append(i)
        alive = set(cur)
        kids = {i: list(children.get(i, [])) for i in cur}
        for i in cur:
            if remove_fn(i, kids.get(i, []), parents.get(i)):
                alive.discard(i)
                p = parents[i]
                if p is not None:
                    kids[p] = [x for x in kids[p] if x != i] + kids.get(i, [])
                for ch in kids.get(i, []):
                    parents[ch] = p
        out = [i for i in cur if i in alive]
        if fired is not None:
            fired.append(len(cur) - len(out))
        return out

    live = run_traversal(live, lambda i, ch, p: any(
        values_tilde[w] <= values_tilde[i] for w in ch))
    proj = [projection(g, X) for X in sets]
    live = run_traversal(live, lambda i, ch, p: p is not None
                         and proj[p] == proj[i])
    live = run_traversal(live, lambda i, ch, p: any(
        values_orig[w] <= values_orig[i] for w in ch))
    return LaminarForest.from_family(
        [(proj[i], values_orig[i], sets[i]) for i in live])


def tree_signature(f):
    return [(i, sorted(f.nodes[i].terminals), f.nodes[i].c,
             sorted(f.nodes[i].mu_tilde), f.nodes[i].parent)
            for i in f.live()]


def _random_laminar(rng, n, tries=40):
    fam = []
    for _ in range(tries):
        X = frozenset(v for v in range(n) if rng.random() < rng.random())
        if X and all(not (X & Y) or X <= Y or Y <= X for Y in fam):
            fam.append(X)
    return fam


def test_postprocess_matches_rebuild_reference_random_laminar():
    """Unit weights up to 2 tie many cut values and few terminals repeat
    projections, so every traversal removes nodes somewhere."""
    rng = random.Random(11)
    removed = [0, 0, 0]
    for trial in range(400):
        n = rng.randint(3, 9)
        edges = [(u, v, rng.randint(1, 2))
                 for u, v in itertools.combinations(range(n), 2)
                 if rng.random() < 0.5]
        g = Graph.build(n, edges or [(0, 1, 1)],
                        rng.sample(range(n), rng.randint(2, min(n, 4))))
        pg = perturb(g)
        fam = _random_laminar(rng, n)
        fired: list[int] = []
        want = tree_signature(_postprocess_rebuild(fam, g, pg, fired))
        assert tree_signature(postprocess(fam, g, pg)) == want, trial
        removed = [a + b for a, b in zip(removed, fired)]
    assert min(removed) > 0, removed


@pytest.mark.parametrize("w_max", [2, 3, 5])
def test_postprocess_matches_rebuild_reference_corpus(w_max):
    for idx in range(60):
        g = random_connected(idx, n_max=12, w_max=w_max)
        pg = perturb(g)
        fam = find_supreme_candidates(pg)
        assert tree_signature(postprocess(fam, g, pg)) == \
            tree_signature(_postprocess_rebuild(fam, g, pg)), idx
