import pytest

from steineraug.external import (ExternalSolution, augmentation_lower_bound,
                                 external_augment, make_even)
from steineraug.supreme import supreme_forest

from conftest import g_cyc4, g_path, random_connected


def solved_forest(g, tau):
    f = supreme_forest(g)
    f.compute_rdem(tau)
    return f


def test_external_augment_path():
    sol = external_augment(solved_forest(g_path(), 3), 3)
    assert sol.beta == {0: 2, 2: 2}
    assert sol.total_weight == 4


def test_external_augment_cyc4():
    sol = external_augment(solved_forest(g_cyc4(), 4), 4)
    assert sol.beta == {i: 2 for i in range(4)}
    assert sol.total_weight == 8


def test_external_augment_satisfied_forest_empty():
    # tau at the current connectivity: every node is contracted away.
    sol = external_augment(solved_forest(g_cyc4(), 2), 2)
    assert sol.beta == {}


def test_make_even():
    assert make_even(ExternalSolution({0: 2, 1: 2})).total_weight == 4
    even = make_even(ExternalSolution({3: 2, 1: 3}))
    assert even.total_weight == 6
    assert even.beta[1] == 4              # lowest supported id gets the +1
    assert make_even(ExternalSolution({})).total_weight == 0


def test_augmentation_lower_bound():
    assert augmentation_lower_bound(ExternalSolution({0: 2, 1: 2})) == 2
    assert augmentation_lower_bound(ExternalSolution({0: 4, 1: 3})) == 4
    assert augmentation_lower_bound(ExternalSolution({})) == 0


def test_inconsistent_rdem_raises():
    # The output guards must trip, also under -O: a child demanding more
    # than its parent breaks the rdem recurrence.
    f = solved_forest(random_connected(8), 4)
    child = next(i for i in f.live() if f.nodes[i].parent is not None)
    f.nodes[child].rdem = f.nodes[f.nodes[child].parent].rdem + 1
    with pytest.raises(RuntimeError, match="rdem recurrence"):
        external_augment(f, 4)
