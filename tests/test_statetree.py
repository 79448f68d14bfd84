import numpy as np
import pytest

from agedist import Geometric, ImportanceDist, Model, StateTree


@pytest.fixture()
def tri():
    return Model(ImportanceDist((1.0, 3.0, 9.0), (0.5, 0.3, 0.2)), Geometric(0.4))


def test_node_counts(fig1, tri):
    assert StateTree(fig1, 3).node_count() == 15
    assert StateTree(fig1, 1).node_count() == 3
    assert StateTree(tri, 2).node_count() == 13


def test_bfs_ids_and_round_trip(fig1):
    tree = StateTree(fig1, 3)
    assert tree.index_of(()) == 0
    assert tree.index_of((1.0,)) == 1
    assert tree.index_of((20.0,)) == 2
    for nid in range(tree.node_count()):
        assert tree.index_of(tree.state_of(nid)) == nid
    # all length-l states precede length-(l+1) states
    assert tree.index_of((20.0, 20.0)) < tree.index_of((1.0, 1.0, 1.0))


def test_parent_child_round_trip(fig1):
    tree = StateTree(fig1, 4)
    for l in range(1, 4):
        for i in range(tree.level_size[l]):
            for d in range(tree.m):
                child = d * tree.level_size[l] + i
                assert tree.parent_index(l + 1, child) == i
                assert tree.first_digit(l + 1, child) == d


def test_index_errors(fig1):
    tree = StateTree(fig1, 2)
    with pytest.raises(ValueError):
        tree.index_of((2.5,))
    with pytest.raises(ValueError):
        tree.index_of((1.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        tree.state_of(tree.node_count())


def test_depth_cap_rejected(fig1):
    with pytest.raises(ValueError) as err:
        StateTree(fig1, 40)
    assert "nodes" in str(err.value)


def test_expectation_over_suffix(fig1):
    tree = StateTree(fig1, 3)
    h = [np.zeros(n) for n in tree.level_size]
    # empty suffix returns the field itself
    h[2][:] = np.arange(4)
    assert tree.expectation_over_suffix(2, 3, 0, h) == 3.0
    # constant field has constant expectation
    for arr in h:
        arr[:] = 2.5
    assert tree.expectation_over_suffix(1, 0, 2, h) == pytest.approx(2.5, abs=1e-12)
    # weighted average of the two children: 0.7*10 + 0.3*20
    h[2][:] = 0.0
    node = tree.locate((20.0,))
    h[2][node[1] * 2 + 0] = 10.0
    h[2][node[1] * 2 + 1] = 20.0
    got = tree.expectation_over_suffix(1, node[1], 1, h)
    assert got == pytest.approx(13.0, abs=1e-12)
    with pytest.raises(ValueError):
        tree.expectation_over_suffix(2, 0, 2, h)


def test_expectation_is_linear(fig1):
    tree = StateTree(fig1, 4)
    rng = np.random.default_rng(0)
    h = [rng.normal(size=tree.level_size[l]) for l in range(5)]
    doubled = [2.0 * arr for arr in h]
    for (l, i, k) in [(0, 0, 3), (1, 1, 2), (2, 3, 2), (3, 5, 1)]:
        base = tree.expectation_over_suffix(l, i, k, h)
        two = tree.expectation_over_suffix(l, i, k, doubled)
        assert two == pytest.approx(2.0 * base, abs=1e-12)


def test_enumeration_is_exhaustive(fig1):
    tree = StateTree(fig1, 3)
    seen = {tree.state_of(nid) for nid in range(tree.node_count())}
    assert len(seen) == tree.node_count() == 15
