"""Suffix trie over truncated buffer states, stored as flat per-level arrays.

A buffer state is a sequence of importance values, oldest first; its
parent drops the oldest entry.  Within level ``l`` a state is the
mixed-radix number of its value digits (0 is v_min), oldest most
significant: ``buffer_index`` and ``buffer_entries`` are this map and its
inverse, the package's one buffer codec.  So a level viewed in C order as
``(m, m**(l-1))`` has the oldest digit as its row and the parent as its
column (a parent-level array broadcasts as a row, a per-value array as a
column), and viewed as ``(m**(l-k), m**k)`` its row ``i`` is the block
``b || V^k`` of node ``i`` of level ``l-k``.  A ``StateTree`` holds this
topology only, at O(K) cost; the block weights ``wprob``, which only the
oracle routes read, are built on first read.
"""

from __future__ import annotations

from decimal import Decimal
from functools import cached_property

import numpy as np

from .model import Model, is_number

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


def _short(n: int) -> str:
    """A positive integer as written below 10^12, else rounded exactly to short scientific form."""
    return str(n) if n < 10**12 else f"{Decimal(n):.2e}"


def buffer_digits(level: int, index, m: int) -> tuple:
    """Value digits of node ``index`` of a level, oldest first; ``index`` may be an array."""
    return tuple(index // m**p % m for p in range(level - 1, -1, -1))


def buffer_entries(values, level: int, index: int) -> tuple[float, ...]:
    """The buffer (importance values, oldest first) of node ``index`` of a level."""
    return tuple(float(values[d]) for d in buffer_digits(level, index, len(values)))


def buffer_index(values, state) -> tuple[int, int]:
    """(level, index) of a buffer (importance values, oldest first) over a sequence ``values``."""
    idx = 0
    for v in state:
        try:
            d = values.index(float(v))
        except (TypeError, ValueError):
            raise ValueError(f"entry {v!r} is not an importance value {values}") from None
        idx = idx * len(values) + d
    return len(state), idx


def picked_digits(s: np.ndarray, l: int, m: int) -> np.ndarray:
    """Value digit (0 is v_min) of the entry each level-l state picks under int64 actions ``s``.

    Entry s - 1, oldest first, is digit l - s of the state index; an
    infeasible s is clipped into the level.
    """
    return np.arange(m**l) // m ** np.clip(l - s, 0, l - 1) % m


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
        if not (is_number(K, (int, np.integer)) and K >= 1):
            raise ValueError(f"tree depth K must be an integer >= 1, got {K!r}")
        m = model.v.size
        cap = max_depth(m)
        if K > cap:
            nodes = _short(K + 1) if m == 1 else f"{m}^{_short(K + 1)}"
            raise ValueError(
                f"K={_short(K)} exceeds the dense-storage cap {cap} for |V|={m} "
                f"(would need {nodes} nodes)"
            )
        self.K = K
        self.m = m
        self.values = np.asarray(model.v.values, dtype=np.float64)
        self.probs = np.asarray(model.v.probs, dtype=np.float64)
        self.level_size = [m**l for l in range(K + 1)]
        self.level_offset = np.cumsum([0] + self.level_size).tolist()
        self.last_actions: list[np.ndarray] | None = None

    @cached_property
    def wprob(self) -> list[np.ndarray]:
        """Product weights over appended blocks: ``wprob[k][j] = Pr(V^k == digits of j)``."""
        wprob = [np.ones(1)]
        for _ in range(self.K):
            wprob.append(np.outer(self.probs, wprob[-1]).ravel())
        return wprob

    # -- bookkeeping -------------------------------------------------------

    def node_count(self) -> int:
        return sum(self.level_size)

    def entries_of(self, level: int, idx: int) -> tuple[float, ...]:
        return buffer_entries(self.values, level, idx)

    def locate(self, state) -> tuple[int, int]:
        """(level, local index) of a buffer state."""
        if len(state) > self.K:
            raise ValueError(f"state length {len(state)} exceeds tree depth {self.K}")
        return buffer_index(self.values.tolist(), state)
