import pytest

from steineraug.forest import LaminarForest


def F(*sets):
    """Forest from (terminals, c) pairs (mu omitted)."""
    return LaminarForest.from_family(
        [(frozenset(t), c, None) for (t, c) in sets])


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


def test_heavy_light_stop_at_l2_splits_paths():
    # Chain of 3 where the middle node is the highest critical one.
    f = F(({0, 1, 2}, 4), ({0, 1}, 1), ({0}, 3))
    f.compute_rdem(5)
    f.mark_critical(5)
    l2, _ = f.compute_L2_Lhigh()
    mid = next(i for i in f.live()
               if f.nodes[i].terminals == frozenset({0, 1}))
    assert l2 == {mid}
    hld = f.heavy_light()
    upper = [p for p in hld.paths if p.level == "upper"]
    lower = [p for p in hld.paths if p.level == "lower"]
    assert len(upper) == 1 and upper[0].nodes[-1] == mid
    assert len(lower) == 1 and len(lower[0].nodes) == 1


def test_serialization_runs():
    f = F(({0, 1}, 2), ({0}, 1))
    f.compute_rdem(3)
    assert '"terminals"' in f.to_json()
    assert "digraph" in f.to_dot()
