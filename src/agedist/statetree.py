"""Suffix trie over truncated buffer states, stored as flat per-level arrays.

A buffer state is a sequence of importance values, oldest first.  The trie
parent relation drops the oldest entry, so the children of a state prepend
one value in front of it.  Nodes are laid out breadth first; within level
``l`` a state maps to the mixed-radix integer whose most significant digit
is the oldest entry.  The layout is the index: a level-``l`` array viewed in
C order as ``(m, m**(l-1))`` has the oldest digit as its row and the parent
as its column, so a parent-level array broadcasts as a row and a per-value
array as a column; viewed as ``(m**(l-k), m**k)`` its row ``i`` is the
appended block ``b || V^k`` of node ``i`` of level ``l-k``.
"""

from __future__ import annotations

import numpy as np

from .model import Model

# Dense storage cap: |V|**(K+1) nodes must fit in 2**24.
NODE_CAP = 1 << 24


def max_depth(alphabet_size: int) -> int:
    """Largest K whose dense trie fits under NODE_CAP."""
    if alphabet_size == 1:
        return NODE_CAP - 1
    k = 1
    while alphabet_size ** (k + 2) <= NODE_CAP:
        k += 1
    return k


class StateTree:
    """Trie over all buffers of length <= K plus the empty root.

    Topology is immutable.  Per-node fields such as relative values or
    action tables are per-level array lists owned by the caller and passed
    in explicitly.  The one mutable attribute, ``last_actions``, is written
    only by the step-wise solver calls ``evaluate_policy`` and
    ``policy_improve`` (the last action table they evaluated or produced)
    and read by ``evaluate_components`` when it is called without actions.
    """

    def __init__(self, model: Model, K: int):
        if K < 1:
            raise ValueError(f"tree depth must be >= 1, got {K}")
        m = model.v.size
        cap = max_depth(m)
        if K > cap:
            digits = (K + 1) * np.log10(m)
            est = f"{sum(m**l for l in range(K + 1))}" if digits < 18 else f"~10^{digits:.0f}"
            raise ValueError(
                f"K={K} exceeds the dense-storage cap {cap} for |V|={m} "
                f"(would need {est} nodes)"
            )
        self.model = model
        self.K = K
        self.m = m
        self.values = np.asarray(model.v.values, dtype=np.float64)
        self.alpha = np.asarray(model.v.probs, dtype=np.float64)
        self.level_size = [m**l for l in range(K + 1)]
        self.level_offset = np.cumsum([0] + self.level_size).tolist()
        self._value_to_digit = {v: d for d, v in enumerate(model.v.values)}

        # Product weights over appended blocks: wprob[k][j] = Pr(V^k == digits of j).
        self.wprob: list[np.ndarray] = [np.ones(1)]
        for _ in range(K):
            self.wprob.append(np.outer(self.alpha, self.wprob[-1]).ravel())

        self.last_actions: list[np.ndarray] | None = None

    # -- bookkeeping -------------------------------------------------------

    def node_count(self) -> int:
        return sum(self.level_size)

    def digits_of(self, level: int, idx: int) -> tuple[int, ...]:
        out = []
        for pos in range(level - 1, -1, -1):
            out.append((idx // self.m**pos) % self.m)
        return tuple(out)

    def entries_of(self, level: int, idx: int) -> tuple[float, ...]:
        return tuple(float(self.values[d]) for d in self.digits_of(level, idx))

    # -- global BFS ids ----------------------------------------------------

    def index_of(self, state) -> int:
        """Global breadth-first node id of a buffer state (root = 0)."""
        l = len(state)
        if l > self.K:
            raise ValueError(f"state length {l} exceeds tree depth {self.K}")
        idx = 0
        for v in state:
            d = self._value_to_digit.get(float(v))
            if d is None:
                raise ValueError(f"entry {v!r} is not an importance value of the model")
            idx = idx * self.m + d
        return self.level_offset[l] + idx

    def state_of(self, node_id: int) -> tuple[float, ...]:
        if not (0 <= node_id < self.node_count()):
            raise ValueError(f"node id {node_id} out of range")
        level = next(l for l in range(self.K + 1) if node_id < self.level_offset[l + 1])
        return self.entries_of(level, node_id - self.level_offset[level])

    def locate(self, state) -> tuple[int, int]:
        """(level, local index) of a buffer state."""
        gid = self.index_of(state)
        level = next(l for l in range(self.K + 1) if gid < self.level_offset[l + 1])
        return level, gid - self.level_offset[level]

    # -- expectations ------------------------------------------------------

    def level_suffix_expectation(self, level: int, k: int, arr) -> np.ndarray:
        """E over V^k of field(b || V^k) for every node b of a level; ``arr`` is the field."""
        if level + k > self.K:
            raise ValueError(f"suffix length {k} overflows depth {self.K} from level {level}")
        if k == 0:
            return arr[level]
        mk = self.m**k
        return arr[level + k].reshape(self.level_size[level], mk) @ self.wprob[k]
