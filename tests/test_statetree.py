import tracemalloc

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


def test_bfs_ids_and_round_trip(fig1, tri):
    tree = StateTree(fig1, 3)
    assert tree.locate(()) == (0, 0)
    assert tree.locate((1.0,)) == (1, 0)
    assert tree.locate((20.0,)) == (1, 1)
    assert tree.locate((20.0, 1.0, 20.0)) == (3, 5)  # digits 1 0 1, oldest most significant
    for t in (tree, StateTree(tri, 3)):
        for l in range(t.K + 1):
            for i in range(t.level_size[l]):
                assert t.locate(t.entries_of(l, i)) == (l, i)
    # breadth first: all length-l states precede length-(l+1) states
    bfs = [tree.level_offset[l] + i for l, i in map(tree.locate, [(20.0, 20.0), (1.0, 1.0, 1.0)])]
    assert bfs[0] < bfs[1]


def test_parent_child_round_trip(fig1, tri):
    # level l + 1 viewed as (m, -1): row = oldest digit, column = parent;
    # level l + k viewed as (m**l, m**k): row i = the block b || V^k of node i
    for tree in (StateTree(fig1, 4), StateTree(tri, 4)):
        for l in range(4):
            ids = np.arange(tree.level_size[l + 1]).reshape(tree.m, -1)
            for d in range(tree.m):
                for i in range(tree.level_size[l]):
                    state = (float(tree.values[d]),) + tree.entries_of(l, i)
                    assert (l + 1, ids[d, i]) == tree.locate(state)
            for k in range(1, 5 - l):
                blocks = np.arange(tree.level_size[l + k]).reshape(tree.level_size[l], -1)
                for i in range(tree.level_size[l]):
                    for j in range(tree.m**k):
                        state = tree.entries_of(l, i) + tree.entries_of(k, j)
                        assert (l + k, blocks[i, j]) == tree.locate(state)


def test_index_errors(fig1):
    tree = StateTree(fig1, 2)
    with pytest.raises(ValueError, match="not an importance value"):
        tree.locate((2.5,))
    with pytest.raises(ValueError, match="not an importance value"):
        tree.locate((1.0, None))
    with pytest.raises(ValueError, match="exceeds tree depth 2"):
        tree.locate((1.0, 1.0, 1.0))


def test_topology_only_until_weights_are_read(fig1):
    # the depth cap and the level sizes cost O(K); the block weights are
    # built on first read, with the bits the solver has always used
    tracemalloc.start()
    try:
        tree = StateTree(fig1, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "wprob" not in vars(tree) and tree.level_size[23] == 1 << 23
    small = StateTree(fig1, 3)
    want = np.ones(1)
    for k in range(4):
        assert small.wprob[k].tobytes() == want.tobytes()
        want = np.outer(fig1.v.probs, want).ravel()
    assert small.wprob is small.wprob


def test_depth_cap_rejected(fig1):
    with pytest.raises(ValueError) as err:
        StateTree(fig1, 40)
    assert "nodes" in str(err.value)


@pytest.mark.parametrize("exp", [25, 300, 400])
def test_depth_cap_message_stays_short(fig1, exp):
    with pytest.raises(ValueError) as err:
        StateTree(fig1, 10**exp - 1)  # rounds up to 1.00e+{exp}
    msg = str(err.value)
    assert msg.startswith(f"K=1.00e+{exp} exceeds the dense-storage cap 23 for |V|=2") and len(msg) < 200


def test_enumeration_is_exhaustive(fig1):
    tree = StateTree(fig1, 3)
    seen = {tree.entries_of(l, i) for l in range(4) for i in range(tree.level_size[l])}
    assert len(seen) == tree.node_count() == 15
