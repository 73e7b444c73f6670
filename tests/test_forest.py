import random

import pytest

from steineraug.forest import LaminarForest, PathSumTree


def F(*sets):
    """Forest from (terminals, c) pairs (mu omitted)."""
    return LaminarForest.from_family(
        [(frozenset(t), c, None) for (t, c) in sets])


def balanced_binary(leaves: int = 8):
    """Laminar family of all dyadic intervals over `leaves` terminals:
    a perfect binary tree with 2*leaves-1 nodes."""
    sets = []
    size = leaves
    while size >= 1:
        for lo in range(0, leaves, size):
            sets.append((frozenset(range(lo, lo + size)), 0, None))
        size //= 2
    return LaminarForest.from_family(sets)


def random_laminar(rng: random.Random, terminals: int = 10) -> LaminarForest:
    sets = [(frozenset(range(terminals)), rng.randint(0, 5), None)]

    def split(lo, hi):
        if hi - lo <= 1 or rng.random() < 0.3:
            return
        mid = rng.randint(lo + 1, hi - 1)
        for (a, b) in ((lo, mid), (mid, hi)):
            if (a, b) != (0, terminals):
                sets.append((frozenset(range(a, b)), rng.randint(0, 5), None))
            split(a, b)

    split(0, terminals)
    return LaminarForest.from_family(sets)


def test_from_family_structure_and_validation():
    f = F(({0}, 1), ({1}, 1), ({0, 1}, 2), ({2}, 3))
    # Largest set first -> id 0, then sorted by terminal list.
    assert f.nodes[0].terminals == frozenset({0, 1})
    assert f.parent(1) == 0 and f.parent(2) == 0
    assert f.parent(3) is None
    assert f.roots() == [0, 3]
    with pytest.raises(ValueError):
        F(({0, 1}, 1), ({1, 2}, 1))       # crossing
    with pytest.raises(ValueError):
        F(({0}, 1), ({0}, 2))             # duplicate


def test_delete_node_splices():
    f = F(({0, 1, 2}, 0), ({0, 1}, 0), ({0}, 0), ({1}, 0), ({2}, 0))
    mid = next(i for i in f.live() if f.nodes[i].terminals == frozenset({0, 1}))
    top = f.root_of(mid)
    f.delete_node(mid)
    # Grandchildren become children of the root.
    kids = {frozenset(f.nodes[ch].terminals) for ch in f.children(top)}
    assert kids == {frozenset({0}), frozenset({1}), frozenset({2})}
    f.delete_node(top)
    assert len(f.roots()) == 3
    with pytest.raises(ValueError):
        f.delete_node(top)


def test_compute_rdem_path_fixture():
    # Supreme forest of the s-v-t path: roots {s}, {t} with c=1.
    f = F(({0}, 1), ({2}, 1))
    f.compute_rdem(3)
    assert [f.nodes[r].rdem for r in f.roots()] == [2, 2]


def test_compute_rdem_contracts_satisfied_nodes():
    f = F(({0, 1}, 1), ({0}, 3), ({1}, 2))
    f.compute_rdem(3)
    assert all(f.nodes[i].c < 3 for i in f.live())
    # Root keeps max(tau - c, child sum) = max(2, 1) = 2.
    root = f.roots()[0]
    assert f.nodes[root].rdem == 2
    assert all(f.nodes[i].rdem > 0 for i in f.live())


def test_mark_critical():
    # Chain {0,1} > {0} with equal demands: only the leaf is critical.
    f = F(({0, 1}, 1), ({0}, 1))
    f.compute_rdem(3)
    f.mark_critical(3)
    root, leaf = f.roots()[0], f.leaves()[0]
    assert f.nodes[leaf].critical
    assert not f.nodes[root].critical
    # Root demanding more than its children: critical.
    f2 = F(({0, 1}, 0), ({0}, 2))
    f2.compute_rdem(3)
    f2.mark_critical(3)
    assert f2.nodes[f2.roots()[0]].critical


def test_L2_Lhigh():
    # Only leaves critical -> L2 = leaves, L_high = everything.
    f = F(({0, 1}, 1), ({0}, 1), ({1}, 1))
    f.compute_rdem(3)
    f.mark_critical(3)
    l2, lhigh = f.compute_L2_Lhigh()
    assert l2 == set(f.leaves())
    assert lhigh == set(f.live())
    # Critical root shadows critical descendants.
    f2 = F(({0, 1}, 0), ({0}, 2))
    f2.compute_rdem(3)
    f2.mark_critical(3)
    l2, lhigh = f2.compute_L2_Lhigh()
    assert l2 == {f2.roots()[0]} == lhigh


def test_heavy_light_path_counts():
    # A pure chain is one heavy path.
    f = F(({0, 1, 2}, 0), ({0, 1}, 0), ({0}, 0))
    hld = f.heavy_light()
    assert len(hld.paths) == 1
    assert hld.paths[0].depth == 1
    # Balanced binary tree of 15 nodes: every leaf-root walk meets <= 4 paths.
    f = balanced_binary(8)
    hld = f.heavy_light()
    assert all(hld.walk_path_count(f, leaf) <= 4 for leaf in f.leaves())
    assert sorted(v for p in hld.paths for v in p.nodes) == f.live()


def test_heavy_light_stop_at_l2_splits_paths():
    # Chain of 3 where the middle node is the highest critical one.
    f = F(({0, 1, 2}, 4), ({0, 1}, 1), ({0}, 3))
    f.compute_rdem(5)
    f.mark_critical(5)
    l2, _ = f.compute_L2_Lhigh()
    mid = next(i for i in f.live()
               if f.nodes[i].terminals == frozenset({0, 1}))
    assert l2 == {mid}
    hld = f.heavy_light(stop_at_l2=True)
    upper = [p for p in hld.paths if p.level == "upper"]
    lower = [p for p in hld.paths if p.level == "lower"]
    assert len(upper) == 1 and upper[0].nodes[-1] == mid
    assert len(lower) == 1 and len(lower[0].nodes) == 1


def test_path_sum_tree_basics():
    f = F(({0, 1}, 5), ({0}, 2), ({1}, 3))
    for mode in ("hld", "naive"):
        t = PathSumTree(f, mode=mode)
        a = next(i for i in f.live() if f.nodes[i].terminals == frozenset({0}))
        b = next(i for i in f.live() if f.nodes[i].terminals == frozenset({1}))
        root = f.roots()[0]
        assert (t.value(a), t.value(b), t.value(root)) == (2, 3, 5)
        t.root_path_add(a, 2)
        assert (t.value(a), t.value(root)) == (4, 7)


def test_path_sum_tree_cross_tree():
    f = F(({0}, 1), ({1}, 1))
    t = PathSumTree(f, mode="hld")
    t.root_path_add(0, 4)                     # one root path per tree
    t.root_path_add(1, 4)
    assert t.value(0) == 5 and t.value(1) == 5


def test_path_sum_tree_differential():
    """hld vs naive under random updates, deletions included."""
    for trial in range(60):
        rng = random.Random(900 + trial)
        fa = random_laminar(rng, terminals=rng.randint(4, 12))
        fb = LaminarForest.from_family(
            [(fa.nodes[i].terminals, fa.nodes[i].c, None) for i in fa.live()])
        ta, tb = PathSumTree(fa, mode="hld"), PathSumTree(fb, mode="naive")
        for _ in range(30):
            live = fa.live()
            op = rng.random()
            if op < 0.45:
                a, b = rng.choice(live), rng.choice(live)
                d = rng.randint(1, 3)
                for x in (a, b):
                    ta.root_path_add(x, d)
                    tb.root_path_add(x, d)
            elif op < 0.8:
                a, d = rng.choice(live), rng.randint(1, 3)
                ta.root_path_add(a, d)
                tb.root_path_add(a, d)
            elif len(live) > 1:
                a = rng.choice(live)
                fa.delete_node(a)
                fb.delete_node(a)
            for i in fa.live():
                assert ta.value(i) == tb.value(i), (trial, i)


def test_serialization_runs():
    f = F(({0, 1}, 2), ({0}, 1))
    f.compute_rdem(3)
    assert '"terminals"' in f.to_json()
    assert "digraph" in f.to_dot()
