"""The three window-K baseline strategies: closed forms and simulation policies.

All three strategies induce small Markov chains over a scalar summary of
the buffer when the interspeaking time is geometric and there are exactly
two importance levels.  S1 sends the oldest important packet in the most
recent K, S2 the newest important in the most recent K, and S3 the newest
important packet older than K slots (falling back to the oldest important
one).  The stationary laws are reversible-chain closed forms: positive terms
in powers of r = (1-q)/(1-p), normalized numerically.  The explicit transition
matrices are built here so tests can cross-check them against
``stationary_distribution``, the one dense solver's law.  For simulation,
S1, S2 and send-latest are chain action tables (``window_table``), which
the simulator reads as it reads a solved policy; ``S3Policy`` is a callable
whose ``starts`` the simulator walks as a count of important arrivals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import Geometric, Model, is_number
from .solver import _chain_actions, average_cost_solve
from .statetree import StateTree


@dataclass(frozen=True)
class StrategyCurvePoint:
    strategy: str
    K: int
    delta_e: float
    d: float
    pi: np.ndarray


def _binary_geometric_params(model: Model) -> tuple[float, float, float, float]:
    """(p, q, v1, v2) after validating the closed-form preconditions."""
    if model.v.size != 2:
        raise ValueError("closed-form strategies require exactly two importance values")
    if not isinstance(model.z, Geometric):
        raise ValueError("closed-form strategies require geometric interspeaking times")
    p = model.z.p
    if p >= 1.0:
        raise ValueError(f"closed-form strategies need p < 1, got p={p}")
    q = model.v.probs[1]
    return p, q, model.v.values[0], model.v.values[1]


def _check_window(K: int) -> None:
    if not (is_number(K, (int, np.integer)) and K >= 1):
        raise ValueError(f"window size K must be an integer >= 1, got {K!r}")


def _reversible_law(model: Model, coef: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """Law on 0..n from weights coef * r**exponents on 1..n and pi_0 = (1-q)/q * pi_1; powers are
    taken relative to the largest term's, so none overflows and nothing is singular at r = 1."""
    p, q, _, _ = _binary_geometric_params(model)
    r = (1.0 - q) / (1.0 - p)
    w = coef * r ** (exponents - exponents[np.argmax(exponents * (r - 1.0))])
    pi = np.concatenate(([(1.0 - q) / q * w[0]], w))
    return pi / pi.sum()


def _curve_point(model: Model, name: str, K: int, pi: np.ndarray, lost: float, top_age=0.0) -> StrategyCurvePoint:
    """Delta_e = sum_{k=1..K} (k-1) pi_k + ``top_age``.  D from the send rate: 1 - p packets a slot
    go unsent, ``lost`` = q - p(1 - pi_0) of them important, each law giving it without cancellation."""
    p, _, v1, v2 = _binary_geometric_params(model)
    delta_e = float(np.arange(K) @ pi[1 : K + 1]) + top_age
    return StrategyCurvePoint(name, K, delta_e, (1.0 - p) * v1 + float(lost) * (v2 - v1), pi)


# ---------------------------------------------------------------------------
# S1: oldest important within the window
# ---------------------------------------------------------------------------


def s1_stationary(model: Model, K: int) -> np.ndarray:
    """pi_k proportional to r**(K-k) on 1..K."""
    return _reversible_law(model, np.ones(K), np.arange(K - 1, -1, -1))


def s1_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    pi = s1_stationary(model, K)
    return _curve_point(model, "S1", K, pi, (1.0 - model.z.p) * pi[K])


def s1_transition_matrix(model: Model, K: int) -> np.ndarray:
    """Explicit chain over {0..K}; z-sums collapsed with exact geometric tails."""
    p, q, _, _ = _binary_geometric_params(model)
    pb, qb = 1.0 - p, 1.0 - q
    P = np.zeros((K + 1, K + 1))

    def into(x: int, y: int) -> float:
        # from state x >= 1 to state y >= 1
        z0 = max(1, y - x + 1)
        tot = 0.0
        for z in range(z0, K - x + 1):
            tot += pb ** (z - 1) * p * qb ** (z - y + x - 1) * q
        zb = max(z0, K - x + 1)
        tot += q * qb ** (K - y) * pb ** (zb - 1)
        return tot

    for x in range(1, K + 1):
        for y in range(1, K + 1):
            P[x, y] = into(x, y)
        P[x, 0] = (qb / q) * P[x, 1]
    P[0, :] = P[1, :]
    return P


# ---------------------------------------------------------------------------
# S2: newest important within the window (i.i.d. chain)
# ---------------------------------------------------------------------------


def s2_stationary(model: Model, K: int) -> np.ndarray:
    """pi_a = q x**(a-1) with x = (1-p)(1-q); pi_0 = (p(1-q) + q x**K) / (1 - x)."""
    p, q, _, _ = _binary_geometric_params(model)
    x = (1.0 - p) * (1.0 - q)
    pi0 = (p * (1.0 - q) + q * x**K) / (1.0 - x)
    return np.concatenate(([pi0], q * x ** np.arange(K)))


def s2_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    p, q, _, _ = _binary_geometric_params(model)
    x = (1.0 - p) * (1.0 - q)
    lost = q * (q * (1.0 - p) + p * x**K) / (1.0 - x)
    return _curve_point(model, "S2", K, s2_stationary(model, K), lost)


def s2_transition_matrix(model: Model, K: int) -> np.ndarray:
    """Each row is the gap law, since an S2 delivery leaves only v_min packets behind."""
    q = _binary_geometric_params(model)[1]
    row = np.array([q * (1.0 - q) ** (a - 1) * model.z_tail(a) for a in range(1, K + 1)])
    return np.tile(np.concatenate(([1.0 - row.sum()], row)), (K + 1, 1))


# ---------------------------------------------------------------------------
# S3: newest important older than K slots, else oldest important
# ---------------------------------------------------------------------------


def s3_stationary(model: Model, K: int) -> np.ndarray:
    """pi_a proportional to p r**(K+1-a) on 1..K and to 1 on state K+1."""
    p = _binary_geometric_params(model)[0]
    return _reversible_law(model, np.append(np.full(K, p), 1.0), np.arange(K, -1, -1))


def s3_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    p, q, _, _ = _binary_geometric_params(model)
    pi = s3_stationary(model, K)
    # state K+1 sends at age K-1+Z' with Z' geometric of rate 1 - pb*qb
    top_age = float(pi[K + 1]) * (1.0 / (1.0 - (1.0 - p) * (1.0 - q)) + K - 1)
    return _curve_point(model, "S3", K, pi, (1.0 - p) * q * pi[K + 1], top_age)


def s3_transition_matrix(model: Model, K: int) -> np.ndarray:
    p, q, _, _ = _binary_geometric_params(model)
    pb, qb = 1.0 - p, 1.0 - q
    denom = 1.0 - pb * qb
    n = K + 2
    P = np.zeros((n, n))
    for a in range(1, K + 1):
        for a2 in range(1, K + 1):
            if a <= a2:
                P[a, a2] = p * q * pb ** (a2 - a) / denom
            else:
                P[a, a2] = p * q * qb ** (a - a2) / denom
        P[a, K + 1] = q * pb ** (K - a + 1) / denom
        P[a, 0] = (qb / q) * P[a, 1]
    for a2 in range(1, K + 1):
        P[K + 1, a2] = p * q * qb ** (K - a2 + 1) / denom
    P[K + 1, 0] = (qb / q) * P[K + 1, 1]
    P[K + 1, K + 1] = 1.0 - P[K + 1, : K + 1].sum()
    P[0, :] = P[1, :]
    return P


# ---------------------------------------------------------------------------
# curves and simulation policies
# ---------------------------------------------------------------------------

_POINT_FN = {"S1": s1_point, "S2": s2_point, "S3": s3_point}


def strategy_point(model: Model, strategy: str, K: int) -> StrategyCurvePoint:
    try:
        fn = _POINT_FN[strategy.upper()]
    except KeyError:
        raise ValueError(f"unknown strategy {strategy!r}; expected S1, S2 or S3") from None
    return fn(model, K)


def strategy_curve(model: Model, strategy: str, k_range) -> list[StrategyCurvePoint]:
    return [strategy_point(model, strategy, K) for K in k_range]


def write_curve_csv(fh, points: list[StrategyCurvePoint]) -> None:
    fh.write("strategy,K,delta_e,d\n")
    for pt in points:
        fh.write(f"{pt.strategy},{pt.K},{pt.delta_e:.12g},{pt.d:.12g}\n")


def stationary_distribution(P: np.ndarray) -> np.ndarray:
    """Stationary law of a unichain row-stochastic matrix: state j's probability is
    the average cost of j's indicator cost, so the law is the lambda row of one
    ``average_cost_solve``, and a chain with several recurrent classes raises."""
    return average_cost_solve(P, np.eye(len(P)))[0]


class WindowTable(NamedTuple):
    """Per-level action table over ``values``, read by table as a ``PolicySolution`` is."""

    values: tuple[float, ...]
    actions: list[np.ndarray]


def window_table(model: Model, strategy: str, K: int = 1) -> WindowTable:
    """S1 or S2 at window K, or send-latest, as a chain action table on the window trie.

    On the (oldest digit, parent) view of a level, S1 sends the oldest
    packet where it is important (digit > 0) and S2 where, too, the parent
    is column 0 (only v_min packets); other states take the parent's
    action plus one.  Send-latest is the depth-1 table.  K is capped at
    the trie's dense-storage depth, 23 for two values.
    """
    name = strategy.upper()
    if name == "SEND-LATEST":
        return WindowTable(model.v.values, _chain_actions(StateTree(model, 1), ()))
    if name not in ("S1", "S2"):
        raise ValueError(f"unknown window strategy {strategy!r}; expected S1, S2 or send-latest")
    _check_window(K)
    _binary_geometric_params(model)
    tree = StateTree(model, K)
    # level l is n = m**(l-1) parents per oldest digit: S1 takes rows 1.., S2 their column 0
    takes = [None] + [slice(n, None, n if name == "S2" else 1) for n in tree.level_size[:-1]]
    return WindowTable(model.v.values, _chain_actions(tree, takes))


class S3Policy:
    """Newest important packet older than K slots; else the oldest important.

    Ages matter here, so the buffer is kept untruncated: a packet at
    position j (1-based, oldest first) of a length-l buffer has age l - j.
    The simulator walks it by ``starts``, a count of important arrivals
    per delivery; the call on a buffer slice is its reference.
    """

    max_buffer = None

    def __init__(self, model: Model, K: int):
        _check_window(K)
        _binary_geometric_params(model)
        self.v_min = model.v.v_min
        self.K = K

    def __call__(self, entries) -> int:
        l = len(entries)
        oldest_important = 0
        for j in range(l, 0, -1):
            if entries[j - 1] > self.v_min:
                if l - j >= self.K:
                    return j
                oldest_important = j
        if oldest_important:
            return oldest_important
        return l

    def starts(self, important: np.ndarray, speaks: np.ndarray, chunk: int) -> np.ndarray:
        """The buffer's start after each delivery at ``speaks``, after an empty delivery at slot 0.

        ``important[i]`` flags the arrival of slot i + 1, so at slot t the
        buffer holds indices start .. t - 1.  Every pick leaves through an
        important arrival, or empties the buffer, so the state is n, the
        important arrivals consumed.  With ``pos`` their indices, A_k =
        #{pos < t_k - K} and B_k = #{pos < t_k}, delivery k consumes through
        the newest important arrival older than K if the buffer holds it,
        else the oldest one, else none: n_k = max(A_k, min(n_(k-1) + 1, B_k)),
        one list comprehension per ``chunk`` deliveries.  The start is
        pos[n_k - 1] + 1 where n_k grew, else t_k.
        """
        pos = np.flatnonzero(important)
        start = np.concatenate(([0], speaks))
        n = 0
        for lo in range(0, len(speaks), chunk):
            t = speaks[lo : lo + chunk]
            pairs = zip(np.searchsorted(pos, t - self.K).tolist(), np.searchsorted(pos, t).tolist())
            taken = np.array([n] + [n := a if a > n else n + (n < b) for a, b in pairs])
            grew = np.flatnonzero(taken[1:] > taken[:-1])
            start[lo + 1 + grew] = pos[taken[grew + 1] - 1] + 1
        return start
