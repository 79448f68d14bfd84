"""Headerless-packet problem: the buffer-length MDP and Tunstall coding.

When packets carry no timestamps the sender transmits contiguous N-bit
chunks and the receiver infers their position from the (shared) speaking
schedule, so only the buffer length matters.  This module solves the
resulting average-cost MDP over lengths, evaluates single-threshold
policies in closed form, and improves them by replacing the fixed chunk
with a variable-to-fixed Tunstall parse of the sendable region.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import Geometric, Model, check_eta
from .sim import SimConfig, SimResult, simulate_bit_policy
from .solver import MAX_ITERS, TIE_TOL, age_distortion_solve

# Length-MDP state cap: the solve holds a few dense L_cap x L_cap float arrays
# (134 MB each at the cap).
BI_STATE_CAP = 4096


@dataclass(frozen=True)
class BinarySource:
    """Bernoulli bit source: a 1-bit is important (importance v), a 0-bit is 1."""

    q: float
    v: float
    p: float
    N: int

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"bit probability q must be in (0, 1), got {self.q}")
        if self.v < 1.0:
            raise ValueError(f"important-bit weight v must be >= 1, got {self.v}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"speaking parameter p must be in (0, 1], got {self.p}")
        if self.N < 1:
            raise ValueError(f"bits per transmission N must be >= 1, got {self.N}")

    @property
    def mu_v(self) -> float:
        return (1.0 - self.q) + self.v * self.q

    @property
    def mu(self) -> float:
        return 1.0 / self.p

    @classmethod
    def from_model(cls, model: Model, N: int) -> "BinarySource":
        if model.v.size != 2 or model.v.values[0] != 1.0:
            raise ValueError("binary source needs importance values {1, v}")
        if not isinstance(model.z, Geometric):
            raise ValueError("binary source needs geometric interspeaking times")
        return cls(q=model.v.probs[1], v=model.v.values[1], p=model.z.p, N=N)


def bi_one_step_cost(source: BinarySource, eta: float, l: int, s: int) -> float:
    """g(l, s) = mu_V * p * (s - N)^+ + eta * (l - s)."""
    if not (1 <= s <= l):
        raise ValueError(f"selection {s} infeasible for buffer length {l}")
    return source.mu_v * source.p * max(s - source.N, 0) + eta * (l - s)


# ---------------------------------------------------------------------------
# length MDP
# ---------------------------------------------------------------------------


@dataclass
class BIPolicySolution:
    eta: float
    N: int
    L_cap: int
    lam: float
    delta_e: float
    d: float
    iters: int
    actions: np.ndarray  # actions[l] for l = 1..L_cap (index 0 unused)
    h: np.ndarray

    def matching_threshold(self) -> int | None:
        """The tau whose single-threshold policy equals this one, if any."""
        tau = int(max(l - int(self.actions[l]) for l in range(1, self.L_cap + 1)))
        for l in range(1, self.L_cap + 1):
            if self.actions[l] != min(max(l - tau, self.N), l):
                return None
        return tau

    def policy(self) -> "LengthActionPolicy":
        return LengthActionPolicy(self.actions, self.N, self.L_cap)


def _leftover_table(source: BinarySource, L: int):
    """Next-length law and tail charge per leftover ``rest = l - s``, truncated at L.

    Row ``rest`` of ``T`` is the law of the next length (state j is length
    j + 1): the Z new bits land on length rest + Z, and Pr(Z >= L - rest)
    lumps onto the cap.  ``tail[rest]`` = mu_V * p * E[(Z - (L - rest))^+]
    charges the bits that fall off the cap.
    """
    p = source.p
    pb = 1.0 - p
    geo = np.array([p * pb**k for k in range(L)])
    T = np.zeros((L, L))
    for rest in range(L):
        T[rest, rest : L - 1] = geo[: L - 1 - rest]
        T[rest, L - 1] = pb ** (L - rest - 1)
    tail = np.array([source.mu_v * pb ** (L - rest) for rest in range(L)])
    return T, tail


def _bi_evaluate(actions: np.ndarray, chunk, T, tail, eta: float):
    """Dense evaluation of a length policy on the leftover table; h(1) = 0.

    ``chunk[s]`` is the distortion charge mu_V * p * (s - N)^+ of selecting s.

    Returns ``(lambda, delta_e, d, h)`` from one solve of the age and
    distortion parts of the one-step cost.
    """
    s = actions[1:]
    rest = np.arange(1, len(actions)) - s
    cost = np.empty((len(s), 2))  # [age, distortion] one-step costs
    cost[:, 0] = rest
    cost[:, 1] = chunk[s] + tail[rest]
    lam, delta_e, d, u = age_distortion_solve(T[rest], cost, eta)
    return lam, delta_e, d, np.concatenate(([0.0], u))


def bi_policy_iteration(source: BinarySource, eta: float) -> BIPolicySolution:
    """Policy iteration over buffer lengths 1..L_cap.

    The optimal policy leaves at most N*mu_V/(eta*mu) bits behind, so the
    state space is capped there plus 4N + 16; lengths beyond the cap forget
    their oldest bits at mu_V per mu slots, mirroring the packet model.  An
    L_cap above ``BI_STATE_CAP`` is rejected before anything is allocated.

    The next length depends on (l, s) only through the leftover l - s, so
    the policy-independent leftover table (``_leftover_table``) is built
    once: an evaluation picks its rows, and the improvement reads
    C(l, s) = mu_V * p * (s - N)^+ + eta * (l - s) + after[l - s] with
    ``after = tail + T @ h``, scanning s downward from l and switching only
    when strictly better by more than ``TIE_TOL``.
    """
    check_eta(eta)
    N = source.N
    spare = N * source.mu_v / (eta * source.mu)
    L = N + math.ceil(spare) + 4 * N + 16 if math.isfinite(spare) else math.inf
    if L > BI_STATE_CAP:
        raise ValueError(
            f"length MDP at eta={eta}, N={N} needs L_cap={L} states, "
            f"over the cap of {BI_STATE_CAP}"
        )
    T, tail = _leftover_table(source, L)
    chunk = source.mu_v * source.p * np.maximum(np.arange(L + 1) - N, 0)
    lengths = np.arange(1, L + 1)

    actions = np.arange(L + 1, dtype=np.int64)  # start from send-latest: s(l) = l
    for it in range(1, MAX_ITERS + 1):
        lam, delta_e, d, h = _bi_evaluate(actions, chunk, T, tail, eta)
        after = tail + T @ h[1:]
        best_s = lengths.copy()
        best_c = chunk[lengths] + after[0]
        for s in range(L - 1, 0, -1):
            l = lengths[s:]  # every length that can select s < l
            c = chunk[s] + eta * (l - s) + after[l - s]
            better = c < best_c[s:] - TIE_TOL
            best_s[s:][better] = s
            best_c[s:][better] = c[better]
        if np.array_equal(best_s, actions[1:]):
            iters = it
            break
        actions[1:] = best_s
    else:
        raise RuntimeError(
            f"length-MDP policy iteration did not converge within {MAX_ITERS} iterations "
            f"(eta={eta}, N={N}, L_cap={L})"
        )
    return BIPolicySolution(
        eta=eta, N=N, L_cap=L, lam=lam, delta_e=delta_e, d=d, iters=iters, actions=actions, h=h
    )


# ---------------------------------------------------------------------------
# single-threshold closed forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThresholdPolicy:
    """s(l) = min(max(l - tau, N), l): keep tau unsent bits when possible."""

    tau: int

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError(f"threshold tau must be >= 0, got {self.tau}")

    def action(self, l: int, N: int) -> int:
        return min(max(l - self.tau, N), l)


@dataclass
class ThresholdPoint:
    tau: int
    delta_e: float
    d: float
    pi_head: np.ndarray  # pi[l] for l = 1..tau+1 (index 0 unused)
    tail_ratio: float  # pi_{tau+1+j} = tail_ratio**j * pi_{tau+1}

    def pi_of(self, l: int) -> float:
        tau = self.tau
        if l < 1:
            return 0.0
        if l <= tau:
            return float(self.pi_head[l])
        return float(self.pi_head[tau + 1] * self.tail_ratio ** (l - tau - 1))

    def pi_sum(self) -> float:
        p = 1.0 - self.tail_ratio
        return float(self.pi_head[1 : self.tau + 1].sum() + self.pi_head[self.tau + 1] / p)


def _s_tables(tau: int, N: int, p: float) -> list[np.ndarray]:
    """S_j^(n) arrays for n = 0..ceil(tau/N), j = 0..tau-1 (negative j is zero)."""
    kmax = math.ceil(tau / N)
    width = max(tau, 1)
    tables = [1.0 + p * np.arange(width)]
    for _ in range(kmax):
        tables.append(np.cumsum(tables[-1]))
    return tables


def threshold_point(source: BinarySource, tau: int) -> ThresholdPoint:
    """Stationary distribution and (delta_e, D) of the tau-threshold policy.

    The distortion uses the per-slot normalization D = mu_V * pi_{tau+1}
    * (1-p)^N / p: the skipped-bit count per speaking instant gets charged
    at rate 1/mu, which the stated tau = 0 value mu_V (1-p)^N pins down.
    """
    if tau < 0:
        raise ValueError(f"threshold tau must be >= 0, got {tau}")
    p, N = source.p, source.N
    pb = 1.0 - p
    pi_head = np.zeros(tau + 2)
    if tau == 0:
        pi_head[1] = p
        return ThresholdPoint(0, 0.0, source.mu_v * pb**N, pi_head, pb)

    tables = _s_tables(tau, N, p)
    num = np.ones(tau)  # numerator of pi_{tau-j} for j = 0..tau-1
    for k, table in enumerate(tables):
        sign = -1.0 if k % 2 == 0 else 1.0
        coef = sign * p**k * pb ** ((k + 1) * (N - 1))
        j = np.arange(tau)
        shifted = np.where(j - k * N >= 0, table[np.maximum(j - k * N, 0)], 0.0)
        num += coef * shifted
    ratios = num / pb ** (np.arange(tau) + 1.0)
    pi_top = 1.0 / (ratios.sum() + 1.0 / p)
    pi_head[tau + 1] = pi_top
    for j in range(tau):
        pi_head[tau - j] = pi_top * ratios[j]

    point = ThresholdPoint(tau, 0.0, 0.0, pi_head, pb)
    delta_e = sum(j * point.pi_of(N + j) for j in range(1, tau)) + tau * pi_top * pb ** (N - 1) / p
    d = source.mu_v * pi_top * pb**N / p
    point.delta_e = float(delta_e)
    point.d = float(d)
    return point


def threshold_chain_matrix(source: BinarySource, tau: int, L: int) -> np.ndarray:
    """Explicit transition matrix of the literal threshold policy on lengths 1..L.

    Lengths beyond L lump into state L; choose L so the lumped mass is
    negligible when using this as a stationary-solve oracle.
    """
    p = source.p
    pb = 1.0 - p
    P = np.zeros((L, L))
    pol = ThresholdPolicy(tau)
    for l in range(1, L + 1):
        rest = l - pol.action(l, source.N)
        for k in range(1, L - rest):
            P[l - 1, rest + k - 1] = p * pb ** (k - 1)
        P[l - 1, L - 1] = pb ** (L - rest - 1)
    return P


def oracle_chain_length(source: BinarySource, tau: int, tail_mass: float = 1e-15) -> int:
    """Chain size whose lumped tail is below tail_mass."""
    pb = 1.0 - source.p
    return tau + source.N + max(64, math.ceil(math.log(tail_mass) / math.log(pb)))


# ---------------------------------------------------------------------------
# Tunstall dictionaries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TunstallDictionary:
    """Complete prefix-free variable-to-fixed dictionary over i.i.d. bits."""

    leaves: tuple[str, ...]
    probs: tuple[float, ...]
    p_one: float

    @property
    def size(self) -> int:
        return len(self.leaves)

    @property
    def expected_parse_length(self) -> float:
        return float(sum(pr * len(w) for w, pr in zip(self.leaves, self.probs)))

    def kraft_sum(self) -> float:
        return float(sum(2.0 ** (-len(w)) for w in self.leaves))

    def dump(self, fh) -> None:
        for w in self.leaves:
            fh.write(w + "\n")


def tunstall_build(p_one: float, M: int) -> TunstallDictionary:
    """Grow the dictionary by always splitting the most probable leaf.

    Ties split the lexicographically smallest word, which the heap ordering
    on (-prob, word) gives for free.
    """
    if M < 2:
        raise ValueError(f"dictionary size must be >= 2, got {M}")
    if not (0.0 < p_one < 1.0):
        raise ValueError(f"bit probability must be in (0, 1), got {p_one}")
    p0, p1 = 1.0 - p_one, p_one
    heap = [(-p0, "0"), (-p1, "1")]
    heapq.heapify(heap)
    for _ in range(M - 2):
        negp, word = heapq.heappop(heap)
        prob = -negp
        heapq.heappush(heap, (-prob * p0, word + "0"))
        heapq.heappush(heap, (-prob * p1, word + "1"))
    items = sorted((word, -negp) for negp, word in heap)
    return TunstallDictionary(
        leaves=tuple(w for w, _ in items),
        probs=tuple(pr for _, pr in items),
        p_one=p_one,
    )


# ---------------------------------------------------------------------------
# simulation policies and the Tunstall-improved threshold point
# ---------------------------------------------------------------------------


class LengthActionPolicy:
    """Bit policy from a solved length-MDP action table."""

    def __init__(self, actions, N: int, L_cap: int):
        self._actions = np.asarray(actions, dtype=np.int64)
        self.n_bits = N
        self.max_buffer = L_cap

    def action(self, l: int) -> int:
        return int(self._actions[min(l, self.max_buffer)])


class PlainThresholdBitPolicy:
    """Literal single-threshold chunk policy (untruncated buffer)."""

    max_buffer = None

    def __init__(self, source: BinarySource, tau: int):
        self.tau = tau
        self.n_bits = source.N

    def action(self, l: int) -> int:
        return min(max(l - self.tau, self.n_bits), l)


class TunstallThresholdBitPolicy:
    """Threshold policy whose skip-state chunk is a Tunstall parse.

    In states with unavoidable skips (l > tau + N) the sendable region
    x_{l-tau}, ..., x_1 is parsed newest-first and the first dictionary
    word's index is transmitted; elsewhere it behaves like the plain
    threshold policy.
    """

    max_buffer = None

    def __init__(self, source: BinarySource, tau: int, dictionary: TunstallDictionary):
        self.tau = tau
        self.n_bits = source.N
        self.dictionary = dictionary
        self._leaves = set(dictionary.leaves)
        self._max_len = max(len(w) for w in dictionary.leaves)

    def action(self, l: int) -> int:
        return min(max(l - self.tau, self.n_bits), l)

    def parse_newest_first(self, bits, sendable: int) -> int:
        """Length of the first word parsed from bits[sendable-1] downward."""
        word = []
        for consumed in range(1, min(sendable, self._max_len) + 1):
            word.append("1" if bits[sendable - consumed] else "0")
            if "".join(word) in self._leaves:
                return consumed
        return min(sendable, self._max_len)


@dataclass
class BitCurvePoint:
    variant: str
    N: int
    tau: int
    delta_e: float
    d: float
    se_d: float = 0.0


def tunstall_threshold_point(
    source: BinarySource,
    tau: int,
    dictionary: TunstallDictionary,
    *,
    horizon: int,
    seed: int,
    burn_in: int | None = None,
) -> tuple[BitCurvePoint, SimResult]:
    """Monte Carlo distortion of the Tunstall-improved threshold policy.

    The age component is unchanged from the plain threshold policy (the
    kept backlog is identical), so delta_e is taken from the closed form;
    only the distortion needs simulation.
    """
    base = threshold_point(source, tau)
    policy = TunstallThresholdBitPolicy(source, tau, dictionary)
    res = simulate_bit_policy(SimConfig(horizon=horizon, seed=seed, burn_in=burn_in), source, policy)
    return BitCurvePoint("bit", source.N, tau, base.delta_e, res.d, res.se_d), res


def write_bi_csv(fh, rows: list[BitCurvePoint]) -> None:
    fh.write("variant,N,tau,delta_e,d\n")
    for r in rows:
        fh.write(f"{r.variant},{r.N},{r.tau},{r.delta_e:.12g},{r.d:.12g}\n")
