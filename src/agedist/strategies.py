"""The three window-K baseline strategies: closed forms and simulation policies.

All three strategies induce small Markov chains over a scalar summary of
the buffer when the interspeaking time is geometric and there are exactly
two importance levels.  S1 sends the oldest important packet in the most
recent K, S2 the newest important in the most recent K, and S3 the newest
important packet older than K slots (falling back to the oldest important
one).  The stationary distributions are reversible-chain closed forms in
powers of r = (1-q)/(1-p) or, when r > 1, of 1/r; the explicit transition
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

from .model import Geometric, Model
from .solver import _chain_actions, average_cost_solve
from .statetree import StateTree

# q = p makes the S1/S3 stationary ratio degenerate; switch to the limit form.
RATIO_SINGULARITY_TOL = 1e-9


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
    if K < 1:
        raise ValueError(f"window size K must be >= 1, got {K}")


def _send_rate_distortion(model: Model, pi0: float) -> float:
    """D from the send-rate identity: unsent mass splits by importance level."""
    p, q, v1, v2 = _binary_geometric_params(model)
    return (1.0 - q - p * pi0) * v1 + (q - p * (1.0 - pi0)) * v2


# ---------------------------------------------------------------------------
# S1: oldest important within the window
# ---------------------------------------------------------------------------


def s1_stationary(model: Model, K: int) -> np.ndarray:
    p, q, _, _ = _binary_geometric_params(model)
    pb, qb = 1.0 - p, 1.0 - q
    r = qb / pb
    pi = np.zeros(K + 1)
    if abs(r - 1.0) < RATIO_SINGULARITY_TOL:
        pi_K = p / (K * p + pb)
        pi[1:] = pi_K
    elif r < 1.0:
        pi_K = (1.0 - r) / (1.0 - (p / q) * r**K)
        pi[1:] = pi_K * r ** (K - np.arange(1, K + 1))
    else:  # numerator and denominator divided by r**K, so no power of r overflows
        rho = pb / qb
        pi[1:] = (1.0 - r) * rho ** np.arange(1, K + 1) / (rho**K - p / q)
    pi[0] = (qb / q) * pi[1]
    return pi


def s1_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    pi = s1_stationary(model, K)
    delta_e = float(np.arange(-1, K) @ pi + pi[0])  # sum (k-1) pi_k over k >= 1
    d = _send_rate_distortion(model, float(pi[0]))
    return StrategyCurvePoint("S1", K, delta_e, d, pi)


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
    p, q, _, _ = _binary_geometric_params(model)
    pb, qb = 1.0 - p, 1.0 - q
    pi = np.zeros(K + 1)
    a = np.arange(1, K + 1)
    pi[1:] = q * (pb * qb) ** (a - 1)
    pi[0] = 1.0 - pi[1:].sum()
    return pi


def s2_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    pi = s2_stationary(model, K)
    delta_e = float(np.arange(-1, K) @ pi + pi[0])
    d = _send_rate_distortion(model, float(pi[0]))
    return StrategyCurvePoint("S2", K, delta_e, d, pi)


def s2_transition_matrix(model: Model, K: int) -> np.ndarray:
    pi = s2_stationary(model, K)
    return np.tile(pi, (K + 1, 1))


# ---------------------------------------------------------------------------
# S3: newest important older than K slots, else oldest important
# ---------------------------------------------------------------------------


def s3_stationary(model: Model, K: int) -> np.ndarray:
    p, q, _, _ = _binary_geometric_params(model)
    pb, qb = 1.0 - p, 1.0 - q
    r = qb / pb
    pi = np.zeros(K + 2)
    if r > 1.0 + RATIO_SINGULARITY_TOL:  # every term divided by r**K: no power of r overflows
        rho = pb / qb
        denom = rho**K + p * (1.0 - rho**K) / (1.0 - rho) + p * qb / q
        pi[K + 1] = rho**K / denom
        pi[1 : K + 1] = p * rho ** np.arange(K) / denom
    else:
        # sum_{a=1..K} r^{K+1-a}
        interior = float(K) if abs(r - 1.0) < RATIO_SINGULARITY_TOL else r * (1 - r**K) / (1 - r)
        pi_top = 1.0 / (1.0 + p * interior + (p * qb / q) * r**K)
        pi[K + 1] = pi_top
        pi[1 : K + 1] = p * pi_top * r ** (K + 1 - np.arange(1, K + 1))
    pi[0] = (qb / q) * pi[1]
    return pi


def s3_point(model: Model, K: int) -> StrategyCurvePoint:
    _check_window(K)
    p, q, _, _ = _binary_geometric_params(model)
    pbqb = (1.0 - p) * (1.0 - q)
    pi = s3_stationary(model, K)
    delta_e = float(np.arange(-1, K) @ pi[: K + 1] + pi[0])
    # state K+1 sends at age K-1+Z' with Z' geometric of rate 1 - pb*qb
    delta_e += float(pi[K + 1]) * (1.0 / (1.0 - pbqb) + K - 1)
    d = _send_rate_distortion(model, float(pi[0]))
    return StrategyCurvePoint("S3", K, delta_e, d, pi)


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
    important = np.arange(tree.m)[:, None] > 0
    takes = [None]
    for n in tree.level_size[:-1]:  # level l has one column per level-(l-1) parent
        takes.append(important & (np.arange(n) == 0) if name == "S2" else important)
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
