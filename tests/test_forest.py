import pytest

from steineraug.forest import HeavyPathDecomposition, LaminarForest
from steineraug.graph import steiner_connectivity
from steineraug.supreme import supreme_forest

from conftest import random_connected


def F(*sets):
    """Forest from (terminals, c) pairs (mu omitted)."""
    return LaminarForest.from_family(
        [(frozenset(t), c, None) for (t, c) in sets])


def test_from_family_structure_and_validation():
    f = F(({0}, 1), ({1}, 1), ({0, 1}, 2), ({2}, 3))
    # Largest set first -> id 0, then sorted by terminal list.
    assert f.nodes[0].terminals == frozenset({0, 1})
    assert f.nodes[1].parent == 0 and f.nodes[2].parent == 0
    assert f.nodes[3].parent is None
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
    # A deleted node keeps its parent at deletion: its deepest live
    # ancestor then, which lowest_live walks.
    assert f.nodes[mid].parent == top
    f.delete_node(top)
    assert f.nodes[top].parent is None and f.nodes[mid].parent == top
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
    leaf = f.leaves()[0]
    assert HeavyPathDecomposition.build(f).critical == {leaf}
    # Root demanding more than its children: critical.
    f2 = F(({0, 1}, 0), ({0}, 2))
    f2.compute_rdem(3)
    assert f2.roots()[0] in HeavyPathDecomposition.build(f2).critical


def test_L2_Lhigh():
    # Only leaves critical -> L2 = leaves, L_high = everything.
    f = F(({0, 1}, 1), ({0}, 1), ({1}, 1))
    f.compute_rdem(3)
    hld = HeavyPathDecomposition.build(f)
    assert hld.l2 == set(f.leaves())
    assert hld.lhigh == set(f.live())
    # Critical root shadows critical descendants.
    f2 = F(({0, 1}, 0), ({0}, 2))
    f2.compute_rdem(3)
    hld2 = HeavyPathDecomposition.build(f2)
    assert hld2.l2 == {f2.roots()[0]} == hld2.lhigh


def test_heavy_light_stop_at_l2_splits_paths():
    # Chain of 3 where the middle node is the highest critical one.
    f = F(({0, 1, 2}, 4), ({0, 1}, 1), ({0}, 3))
    f.compute_rdem(5)
    hld = HeavyPathDecomposition.build(f)
    mid = next(i for i in f.live()
               if f.nodes[i].terminals == frozenset({0, 1}))
    assert hld.l2 == {mid}
    upper = [p for p in hld.paths if p.level == "upper"]
    lower = [p for p in hld.paths if p.level == "lower"]
    assert len(upper) == 1 and upper[0].nodes[-1] == mid
    assert len(lower) == 1 and len(lower[0].nodes) == 1
    assert [p.anchor for p in hld.paths] == [mid, mid]
    assert [p.depth for p in hld.paths] == [1, 2]


def test_build_needs_rdem():
    f = F(({0, 1}, 1), ({0}, 1))
    with pytest.raises(ValueError, match="compute_rdem"):
        HeavyPathDecomposition.build(f)
    assert HeavyPathDecomposition.build(LaminarForest()).paths == []


def test_anchors_l2_and_critical_on_corpus():
    checked = 0
    for idx in range(40):
        g = random_connected(idx)
        conn = steiner_connectivity(g)
        for tau in range(max(conn + 1, 2), conn + 4):
            f = supreme_forest(g)
            f.compute_rdem(tau)
            hld = HeavyPathDecomposition.build(f)
            nodes = f.nodes
            assert hld.critical == {
                i for i in f.live() if tau - nodes[i].c
                > sum(nodes[ch].rdem for ch in nodes[i].children)}
            # The anchor is the one L2 node on the root path of the
            # path's bottom: an upper path ends at it, a lower one hangs
            # below it.
            for p in hld.paths:
                on_root_path = hld.l2.intersection(f.ancestors(p.nodes[-1]))
                assert on_root_path == {p.anchor}
            upper = {i for p in hld.paths if p.level == "upper"
                     for i in p.nodes}
            assert upper == {a for i in hld.l2 for a in f.ancestors(i)}
            assert sorted(hld.path_of) == f.live()
            checked += 1
    assert checked >= 100


def test_serialization_runs():
    f = F(({0, 1}, 2), ({0}, 1))
    f.compute_rdem(3)
    assert '"terminals"' in f.to_json()
    assert "digraph" in f.to_dot()
