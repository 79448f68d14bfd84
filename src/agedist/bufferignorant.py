"""Headerless-packet problem: the buffer-length MDP and Tunstall coding.

When packets carry no timestamps the sender transmits contiguous N-bit
chunks and the receiver infers their position from the (shared) speaking
schedule, so only the buffer length matters.  This module solves the
resulting average-cost MDP over lengths, evaluates single-threshold
policies exactly by a recursion of positive terms, and improves them, also
in closed form, by replacing the fixed chunk with a variable-to-fixed
Tunstall parse of the sendable region.  Lengths are capped at
``BI_STATE_CAP`` states, dictionaries at ``TUNSTALL_CAP`` words.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .model import Geometric, Model, check_eta, is_number
from .solver import MAX_ITERS, TIE_TOL, age_distortion_solve

# Length-MDP state cap: the solve holds a few dense L_cap x L_cap float arrays
# (134 MB each at the cap).
BI_STATE_CAP = 4096
TUNSTALL_CAP = 1 << 16  # dictionary words, one heap entry each: N-bit chunks up to N = 16
ORACLE_TAIL_MASS = 1e-15


@dataclass(frozen=True)
class BinarySource:
    """Bernoulli bit source: a 1-bit is important (importance v), a 0-bit is 1."""

    q: float
    v: float
    p: float
    N: int

    def __post_init__(self):
        for name in ("q", "v", "p"):
            x = getattr(self, name)
            if not (is_number(x, (int, float, np.integer, np.floating)) and math.isfinite(x)):
                raise ValueError(f"source parameter {name} must be a finite number, got {x!r}")
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"bit probability q must be in (0, 1), got {self.q}")
        if self.v < 1.0:
            raise ValueError(f"important-bit weight v must be >= 1, got {self.v}")
        if not (0.0 < self.p <= 1.0):
            raise ValueError(f"speaking parameter p must be in (0, 1], got {self.p}")
        if not (is_number(self.N, (int, np.integer)) and self.N >= 1):
            raise ValueError(f"bits per transmission N must be an integer >= 1, got {self.N!r}")

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
    """A converged length policy; it is its own bit policy, on a buffer of ``L_cap`` bits."""

    eta: float
    N: int
    L_cap: int
    lam: float
    delta_e: float
    d: float
    iters: int
    actions: np.ndarray  # actions[l] for l = 1..L_cap (index 0 unused)

    @property
    def n_bits(self) -> int:
        return self.N

    @property
    def max_buffer(self) -> int:
        return self.L_cap

    def action(self, l):
        """The chunk end index at length l, or at each of an array of lengths; lengths past the cap act as the cap."""
        return self.actions[np.minimum(l, self.L_cap)]

    def matching_threshold(self) -> int | None:
        """The tau whose single-threshold policy s(l) = min(max(l - tau, N), l) equals this one, if any."""
        l = np.arange(1, self.L_cap + 1)
        tau = int(np.max(l - self.actions[1:]))
        return tau if np.array_equal(self.actions[1:], np.clip(l - tau, self.N, l)) else None


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
        eta=eta, N=N, L_cap=L, lam=lam, delta_e=delta_e, d=d, iters=iters, actions=actions
    )


# ---------------------------------------------------------------------------
# single-threshold policies
# ---------------------------------------------------------------------------


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


def threshold_point(source: BinarySource, tau: int) -> ThresholdPoint:
    """Stationary distribution and (delta_e, D) of the tau-threshold policy.

    The leftover ``r = l - s(l)`` of a speaking instant is a chain on
    0..tau, ``r' = clip(r + Z - N, 0, tau)``.  Z is geometric, so the chain
    enters {k..tau} from below at k + Geometric(p) - 1 wherever it was: on
    that set state k keeps itself with probability p and is reached with
    probability p from each r in k+1..k+N-1.  So its law M obeys
    ``M_k = p / (1-p) * (M_{k+1} + ... + M_{k+N-1})`` for k >= 1, and
    balance at 0 gives ``M_0 = sum_{r<N} M_r (1 - (1-p)^(N-r)) / (1-p)^N``.
    Every term is positive, so the recursion down from tau keeps full
    relative precision at any tau (N = 1 gives M_k = 0 below tau: those
    leftovers are transient).  The length law is ``pi_1 = p M_0``,
    ``pi_{j+1} = (1-p) pi_j + p M_j``, geometric past tau + 1, and
    delta_e = E[r].

    The distortion uses the per-slot normalization D = mu_V * pi_{tau+1}
    * (1-p)^N / p: the skipped-bit count per speaking instant gets charged
    at rate 1/mu, which the stated tau = 0 value mu_V (1-p)^N pins down.
    """
    if not (is_number(tau, (int, np.integer)) and tau >= 0):
        raise ValueError(f"threshold tau must be an integer >= 0, got {tau!r}")
    p, N = source.p, source.N
    pb = 1.0 - p
    if tau > 0 and pb == 0.0:
        raise ValueError(f"threshold tau={tau} with N={N} needs p < 1, got p={p}")
    M = np.zeros(tau + 1)
    M[tau] = 1.0
    for k in range(tau - 1, 0, -1):
        M[k] = p / pb * M[k + 1 : k + N].sum()
        if M[k] > 1e200:  # rescale; the law is normalized below
            M[k:] /= M[k]
    if tau > 0:  # M_0 (1-p)^N = ..., scaled so that nothing is divided by (1-p)^N
        r = np.arange(1, min(tau, N - 1) + 1)
        M[0] = (M[r] * -np.expm1((N - r) * np.log1p(-p))).sum()
        M[1:] *= pb**N
    M /= M.sum()
    pi_head = np.zeros(tau + 2)
    pi_head[1] = p * M[0]
    for j in range(1, tau + 1):
        pi_head[j + 1] = pb * pi_head[j] + p * M[j]
    delta_e = float(np.arange(tau + 1) @ M)
    d = source.mu_v * pi_head[tau + 1] * pb**N / p
    return ThresholdPoint(tau, delta_e, float(d), pi_head, pb)


def threshold_chain_matrix(source: BinarySource, tau: int, L: int) -> np.ndarray:
    """Explicit transition matrix of the literal threshold policy on lengths 1..L.

    Row l is the leftover table's row for the leftover l - s(l).  Lengths
    beyond L lump into state L; choose L so the lumped mass is negligible
    when using this as a stationary-solve oracle.
    """
    l = np.arange(1, L + 1)
    return _leftover_table(source, L)[0][l - PlainThresholdBitPolicy(source, tau).action(l)]


def oracle_chain_length(source: BinarySource, tau: int) -> int:
    """Chain size whose lumped tail is below ``ORACLE_TAIL_MASS``."""
    pb = 1.0 - source.p
    return tau + source.N + max(64, math.ceil(math.log(ORACLE_TAIL_MASS) / math.log(pb)))


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
    if not (is_number(M, (int, np.integer)) and 2 <= M <= TUNSTALL_CAP):
        raise ValueError(f"dictionary size M={M!r} must lie in [2, {TUNSTALL_CAP}] (the cap) and be an integer")
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


class PlainThresholdBitPolicy:
    """Threshold chunk policy s(l) = min(max(l - tau, N), l) on an untruncated buffer.

    It keeps tau unsent bits when it can; of ``source`` it reads only N.
    """

    max_buffer = None

    def __init__(self, source: BinarySource, tau: int):
        if not (is_number(tau, (int, np.integer)) and tau >= 0):
            raise ValueError(f"threshold tau must be an integer >= 0, got {tau!r}")
        self.tau = tau
        self.n_bits = source.N

    def action(self, l):
        """The chunk end index at length l, or at each of an array of lengths."""
        return np.minimum(np.maximum(l - self.tau, self.n_bits), l)


class TunstallThresholdBitPolicy(PlainThresholdBitPolicy):
    """Threshold policy whose skip-state chunk is a Tunstall parse.

    In states with unavoidable skips (l > tau + N) the sendable region
    x_{l-tau}, ..., x_1 is parsed newest-first and the first dictionary
    word's index is transmitted; elsewhere it behaves like the plain
    threshold policy.
    """

    def __init__(self, source: BinarySource, tau: int, dictionary: TunstallDictionary):
        super().__init__(source, tau)
        self.dictionary = dictionary
        self._leaves = set(dictionary.leaves)
        self._max_len = max(len(w) for w in dictionary.leaves)
        # the dictionary's binary trie, newest bit first: a leaf is its own child
        nodes = {"": 0}
        for word in dictionary.leaves:
            for i in range(1, len(word) + 1):
                nodes.setdefault(word[:i], len(nodes))
        self._child = np.empty(2 * len(nodes), dtype=np.int32)  # child of node n by bit b at 2n + b
        self._depth = np.empty(len(nodes), dtype=np.int64)
        for prefix, n in nodes.items():
            self._depth[n] = len(prefix)
            leaf = prefix in self._leaves
            self._child[2 * n : 2 * n + 2] = (n, n) if leaf else (nodes[prefix + "0"], nodes[prefix + "1"])

    def parse_newest_first(self, bits, sendable: int) -> int:
        """Length of the first word parsed from bits[sendable-1] downward."""
        word = []
        for consumed in range(1, min(sendable, self._max_len) + 1):
            word.append("1" if bits[sendable - consumed] else "0")
            if "".join(word) in self._leaves:
                return consumed
        return min(sendable, self._max_len)

    def word_lengths(self, bits: np.ndarray, newest: np.ndarray) -> np.ndarray:
        """Length of the word parsed from ``bits[newest]`` downward, for each index of ``newest``.

        One trie step per word length, for all indices at once.  A parse
        that runs off bit 0 reads bit 0 again, so its length exceeds
        newest + 1; for any region of ``sendable`` bits ending at ``newest``,
        ``min(length, sendable)`` is ``parse_newest_first``, because the
        dictionary is complete and prefix-free.
        """
        node = np.zeros(len(newest), dtype=np.int32)
        for j in range(self._max_len):
            node = self._child[2 * node + bits.take(newest - j, mode="clip")]
        return self._depth[node]


@dataclass
class BitCurvePoint:
    variant: str
    N: int
    tau: int
    delta_e: float
    d: float


def tunstall_threshold_point(
    source: BinarySource, tau: int, dictionary: TunstallDictionary
) -> BitCurvePoint:
    """Exact (delta_e, D) of the Tunstall-improved threshold policy.

    The parse changes which bits are skipped, never the length l, so pi and
    delta_e are ``threshold_point``'s, with pi geometric past tau + 1.  The
    sendable bits are i.i.d. and independent of l, so summing the skips
    (l - tau - W)^+ of the states l > tau + N over that tail gives
    D_bit = D_bi * E[(1-p)^((W-N)^+) + p (N-W)^+], which is D_bi when W = N.
    Each leaf is weighed under ``source.q`` by its count of ones:
    ``dictionary.probs`` hold the law the dictionary was built for.
    """
    base = threshold_point(source, tau)
    W = np.array([len(w) for w in dictionary.leaves])
    ones = np.array([w.count("1") for w in dictionary.leaves])
    prob = source.q**ones * (1.0 - source.q) ** (W - ones)
    excess = W - source.N
    ratio = prob @ ((1.0 - source.p) ** np.maximum(excess, 0) + source.p * np.maximum(-excess, 0))
    return BitCurvePoint("bit", source.N, tau, base.delta_e, float(base.d * ratio))


def write_bi_csv(fh, rows: list[BitCurvePoint]) -> None:
    fh.write("variant,N,tau,delta_e,d\n")
    for r in rows:
        fh.write(f"{r.variant},{r.N},{r.tau},{r.delta_e:.12g},{r.d:.12g}\n")
