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


def test_parent_child_round_trip(fig1, tri):
    # level l + 1 viewed as (m, -1): row = oldest digit, column = parent;
    # level l + k viewed as (m**l, m**k): row i = the block b || V^k of node i
    for tree in (StateTree(fig1, 4), StateTree(tri, 4)):
        for l in range(4):
            ids = np.arange(tree.level_size[l + 1]).reshape(tree.m, -1)
            for d in range(tree.m):
                for i in range(tree.level_size[l]):
                    state = (float(tree.values[d]),) + tree.entries_of(l, i)
                    assert ids[d, i] == tree.index_of(state) - tree.level_offset[l + 1]
            for k in range(1, 5 - l):
                blocks = np.arange(tree.level_size[l + k]).reshape(tree.level_size[l], -1)
                for i in range(tree.level_size[l]):
                    for j in range(tree.m**k):
                        state = tree.entries_of(l, i) + tree.entries_of(k, j)
                        assert blocks[i, j] == tree.index_of(state) - tree.level_offset[l + k]


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


def test_level_suffix_expectation(fig1):
    tree = StateTree(fig1, 3)
    h = [np.zeros(n) for n in tree.level_size]
    # empty suffix returns the field itself
    h[2][:] = np.arange(4)
    assert tree.level_suffix_expectation(2, 0, h)[3] == 3.0
    # constant field has constant expectation
    for arr in h:
        arr[:] = 2.5
    assert tree.level_suffix_expectation(1, 2, h)[0] == pytest.approx(2.5, abs=1e-12)
    # weighted average of the two children: 0.7*10 + 0.3*20
    h[2][:] = 0.0
    node = tree.locate((20.0,))
    h[2][node[1] * 2 + 0] = 10.0
    h[2][node[1] * 2 + 1] = 20.0
    got = tree.level_suffix_expectation(1, 1, h)[node[1]]
    assert got == pytest.approx(13.0, abs=1e-12)
    with pytest.raises(ValueError):
        tree.level_suffix_expectation(2, 2, h)


def test_expectation_is_linear(fig1):
    tree = StateTree(fig1, 4)
    rng = np.random.default_rng(0)
    h = [rng.normal(size=tree.level_size[l]) for l in range(5)]
    doubled = [2.0 * arr for arr in h]
    for (l, i, k) in [(0, 0, 3), (1, 1, 2), (2, 3, 2), (3, 5, 1)]:
        base = tree.level_suffix_expectation(l, k, h)[i]
        two = tree.level_suffix_expectation(l, k, doubled)[i]
        assert two == pytest.approx(2.0 * base, abs=1e-12)


def test_enumeration_is_exhaustive(fig1):
    tree = StateTree(fig1, 3)
    seen = {tree.state_of(nid) for nid in range(tree.node_count())}
    assert len(seen) == tree.node_count() == 15
