"""Monte Carlo simulation of the discrete-time model; the universal oracle.

Randomness comes from numpy's Philox generator, split by
``SeedSequence.spawn`` into two substreams of the config seed: stream 0
drives arrivals (one packet, or one bit, per slot), stream 1 timing.  With
geometric gaps the timing stream is one Bernoulli success flag per slot in
both the direct and the erasure-commitment modes, so under a shared seed
the two modes see the same arrivals and speaking slots.

One loop serves the direct, erasure and bits modes.  Deliveries and window
drops both take entries from the oldest end, so the buffer at slot t is
the newest l arrivals, ``arrivals[t - l:t]``, and the integer l is the
only state.  The loop walks the mode's query slots (the speaking slots, or
every slot in erasure mode); at each, l grows by the gap, the policy picks
an action and a delivery removes the oldest entries it consumed.

A policy that carries a per-level action table, ``actions`` and
``values`` (a ``PolicySolution`` or a ``strategies.window_table``), is read
by table: the action is ``actions[l][key_t % m**l]``, where the rolling
key ``key_t`` is the mixed-radix number of the last K arrival digits,
newest least significant, computed by numpy in chunks.  Each level is read
in place, one entry per query.  Before the first slot every entry is
checked against the rule the callable route applies per query:
``1 <= s <= l``, and no pick of a ``v_min`` packet unless it is the
newest.  A checked table cannot fail on a lost erasure slot, so erasure
mode walks only the delivering slots and stays bit-identical to direct
mode.  Any other policy (S3, whose buffer is untruncated, or a plain
callable) is called with the buffer slice, at every slot in erasure mode.

Distortion is charged when an entry becomes unsendable: a delivery passes
over it, or it falls off the window K (slot j's arrival at slot j + K).
Excess age is recorded per delivery.  After a burn-in of 1% of the
horizon, standard errors come from the means of ``BATCHES`` equal slot
spans, each kept as one running sum.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import reduce
from itertools import chain, repeat
from operator import add

import numpy as np

from .model import Geometric, Model
from .statetree import buffer_entries

BATCHES = 32  # equal slot spans behind each batch-means standard error
KEY_CHUNK = 4096  # query slots per numpy pass of the rolling trie key


@dataclass(frozen=True)
class SimConfig:
    """Run length, seed and model; the first 1% of the horizon is burn-in."""

    horizon: int
    seed: int
    model: Model | None = None

    def __post_init__(self):
        if self.horizon < 10_000:
            raise ValueError(f"horizon must be at least 10^4, got {self.horizon}")

    @property
    def burn(self) -> int:
        return self.horizon // 100


@dataclass
class SimResult:
    delta_e: float
    se_delta: float
    d: float
    se_d: float
    horizon: int
    seed: int
    batches: int
    raw_age: float = float("nan")
    batch_delta: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)
    batch_d: np.ndarray = field(default_factory=lambda: np.empty(0), repr=False)

    def combined_se(self, eta: float) -> float:
        """Batch-means standard error of d + eta * delta_e."""
        comb = self.batch_d + eta * self.batch_delta
        return float(np.std(comb, ddof=1) / np.sqrt(len(comb)))

    def to_json_dict(self) -> dict:
        return {
            "delta_e": self.delta_e,
            "se_delta": self.se_delta,
            "d": self.d,
            "se_d": self.se_d,
            "horizon": self.horizon,
            "seed": self.seed,
        }

    def to_json(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh)


def _streams(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    arr_ss, tim_ss = np.random.SeedSequence(seed).spawn(2)
    return (
        np.random.Generator(np.random.Philox(arr_ss)),
        np.random.Generator(np.random.Philox(tim_ss)),
    )


def _draw_arrival_digits(model: Model, rng: np.random.Generator, n: int) -> np.ndarray:
    """Index into ``model.v.values`` of each slot's arrival, in the smallest unsigned dtype."""
    cum = np.cumsum(model.v.probs)
    digits = np.minimum(np.searchsorted(cum, rng.random(n), side="right"), len(cum) - 1)
    return digits.astype(np.min_scalar_type(len(cum) - 1))


def _slots_where(flags: np.ndarray) -> np.ndarray:
    """1-based slots whose flag is set; shifted in place, so no second index array is made."""
    slots = np.flatnonzero(flags)
    slots += 1
    return slots


def _speak_slots(model: Model, rng: np.random.Generator, horizon: int) -> np.ndarray:
    """1-based slots at which the sender speaks."""
    if isinstance(model.z, Geometric):
        return _slots_where(rng.random(horizon) < model.z.p)
    cum = np.cumsum(model.z.probs)
    chunks = []
    t = 0
    while t <= horizon:
        ends = t + np.cumsum(np.searchsorted(cum, rng.random(1024), side="right") + 1)
        chunks.append(ends[ends <= horizon])
        t = int(ends[-1])
    return np.concatenate(chunks)


def _trie_keys(digits: np.ndarray, slots: np.ndarray, m: int, K: int):
    """Iterator over the rolling key of each query slot t.

    ``key_t`` is the mixed-radix number of the arrival digits of slots
    t - K + 1 .. t, newest least significant, computed KEY_CHUNK slots at
    a time.  Slots before slot 1 read slot 1's digit: they sit at powers
    m**j with j >= t >= l, so they drop out of every lookup ``key_t % m**l``.
    """

    def chunk(lo: int) -> list:
        idx = slots[lo : lo + KEY_CHUNK] - K  # 0-based index of each key's oldest digit
        key = np.zeros(len(idx), dtype=np.int64)
        for _ in range(K):
            # Horner in int64: uint8 digits are never multiplied in their own dtype
            key *= m
            key += digits.take(idx, mode="clip")
            idx += 1
        return key.tolist()

    return chain.from_iterable(map(chunk, range(0, len(slots), KEY_CHUNK)))


def _age_area(a: int, b: int, S: int, burn: int) -> float:
    """Sum of tau - S over the post-burn-in slots tau in (a, b]."""
    a = max(a, burn)
    if b <= a:
        return 0.0
    n = b - a
    return (a + 1 + b) * n / 2.0 - n * S


def _run(config: SimConfig, arrivals, importance, slots, delivers, select, max_buffer) -> SimResult:
    """The simulation loop of every mode.

    ``arrivals[j - 1]`` is the arrival of slot j and ``importance[j - 1]``
    what it costs when it goes unsent.  ``slots`` are the query slots in
    increasing order and ``delivers`` their success flags.  At each query
    ``select(t, l)`` picks for the buffer ``arrivals[t - l:t]`` and returns
    ``(skipped, removed)``: on delivery the oldest ``removed`` entries leave,
    the oldest ``skipped`` of them unsent, and the delivered entry has age
    ``l - removed``.  ``max_buffer`` is the window K, or None.
    """
    horizon, burn, nb = config.horizon, config.burn, BATCHES
    # bin 0 tallies the burn-in; bin i >= 1 is batch i - 1, which ends at slot ends[i]
    ends = [burn + (i * (horizon - burn) + nb - 1) // nb for i in range(nb + 1)]
    age = [0] * (nb + 1)
    speaks = [0] * (nb + 1)
    charge = [0.0] * (nb + 1)
    i, end = 0, burn
    raw_age = 0.0
    K = max_buffer
    l = prev = 0
    last_t = last_S = 0  # the last delivery slot and its entry's arrival slot
    # the horizon closes the run: arrivals after the last query can still fall off
    for t, deliver in chain(zip(slots, delivers), [(horizon, None)]):
        l += t - prev
        prev = t
        if K is not None and l > K:
            for u in range(t - l + 1 + K, t + 1):  # slot u - K's arrival falls off at u
                while u > end:
                    i += 1
                    end = ends[i]
                charge[i] += importance[u - K - 1]
            l = K
        if deliver is None:
            break
        skipped, removed = select(t, l)
        if not 1 <= removed <= l:
            raise RuntimeError(f"policy returned infeasible action {removed} for length {l}")
        if not deliver:
            continue
        while t > end:
            i += 1
            end = ends[i]
        age[i] += l - removed
        speaks[i] += 1
        if skipped:
            # plain left-to-right float additions (sum() compensates on Python >= 3.12)
            charge[i] += reduce(add, importance[t - l : t - l + skipped])
        raw_age += _age_area(last_t, t, last_S, burn)
        last_t, last_S = t, t - l + removed
        l -= removed
    raw_age += _age_area(last_t, horizon, last_S, burn)
    return _batch_means(config, age[1:], speaks[1:], charge[1:], np.diff(ends), raw_age)


def _batch_means(config: SimConfig, age, speaks, charge, slot_counts, raw_age) -> SimResult:
    """SimResult from the per-batch sums of age, deliveries and charge."""
    age = np.array(age, dtype=float)
    speaks = np.array(speaks, dtype=np.int64)
    charge = np.array(charge)
    n_eff = config.horizon - config.burn
    ok = speaks > 0
    bm_delta = np.where(ok, age / np.maximum(speaks, 1), 0.0)[ok]
    bm_d = (charge / slot_counts)[ok]
    total_speaks = int(speaks.sum())
    delta_e = float(age.sum() / total_speaks) if total_speaks else 0.0
    d = float(charge.sum() / n_eff)
    nb = int(ok.sum())
    se_delta = float(np.std(bm_delta, ddof=1) / np.sqrt(nb)) if nb > 1 else float("nan")
    se_d = float(np.std(bm_d, ddof=1) / np.sqrt(nb)) if nb > 1 else float("nan")
    return SimResult(
        delta_e=delta_e,
        se_delta=se_delta,
        d=d,
        se_d=se_d,
        horizon=config.horizon,
        seed=config.seed,
        batches=nb,
        raw_age=raw_age / n_eff,
        batch_delta=bm_delta,
        batch_d=bm_d,
    )


def _check_table_level(acts: np.ndarray, l: int, values) -> None:
    """Raise unless every state of length l takes 1 <= s <= l and no stale v_min pick."""
    m = len(values)
    if acts.shape != (m**l,):
        raise ValueError(f"action table level {l} has shape {acts.shape}, expected ({m**l},)")
    if acts.dtype.kind not in "iu":
        raise ValueError(f"action table level {l} has dtype {acts.dtype}, expected integers")
    bad = acts < 1
    bad |= acts > l
    for s in range(1, l):
        # action s picks entry s - 1 (oldest first): the middle axis of this view
        stale = bad.reshape(m ** (s - 1), m, -1)[:, 0]
        stale |= acts.reshape(m ** (s - 1), m, -1)[:, 0] == s
    if bad.any():
        i = int(bad.argmax())
        entries = list(buffer_entries(values, l, i))
        raise RuntimeError(f"policy table has infeasible action {acts[i]} for buffer {entries}")


def _table_select(model: Model, policy, digits: np.ndarray, slots: np.ndarray):
    """``select`` of the table route for the query ``slots``, and the window K."""
    values = model.v.values
    if tuple(policy.values) != values:
        raise ValueError(f"policy values {tuple(policy.values)} differ from the model's {values}")
    tables = [np.asarray(acts) for acts in policy.actions]
    K = len(tables) - 1
    for l in range(1, K + 1):
        _check_table_level(tables[l], l, values)
    # each query reads one entry, in place: a memoryview item is a Python int
    rows = list(map(memoryview, tables))
    size = [len(values) ** l for l in range(K + 1)]
    # select is called once per query slot, in order, so the keys are consumed in step
    keys = _trie_keys(digits, slots, len(values), K)

    def select(t, l):
        s = rows[l][next(keys) % size[l]]
        return s - 1, s

    return select, K


def _run_packets(config: SimConfig, policy, digits, speaks, success=None) -> SimResult:
    """Direct and erasure modes: a delivery skips every packet older than the pick.

    ``digits`` are the arrivals' value indices and ``speaks`` the delivering
    slots; in erasure mode ``success`` holds every slot's flag.  A policy
    carrying ``actions`` and ``values`` takes the table route over the
    delivering slots alone.  Any other policy is called with the buffer
    slice at each query slot, which in erasure mode is every slot.
    """
    model = config.model
    arrivals = np.array(model.v.values, dtype=object)[digits].tolist()
    if hasattr(policy, "actions") and hasattr(policy, "values"):
        select, K = _table_select(model, policy, digits, speaks)
        return _run(config, arrivals, arrivals, map(int, speaks), repeat(True), select, K)
    v_min = model.v.v_min

    def select(t, l):
        entries = arrivals[t - l : t]
        s = int(policy(entries))
        if 1 <= s < l and entries[s - 1] <= v_min:
            raise RuntimeError(f"policy returned infeasible action {s} for buffer {entries}")
        return s - 1, s

    if success is None:
        slots, delivers = map(int, speaks), repeat(True)
    else:
        slots, delivers = range(1, config.horizon + 1), success
    maxb = getattr(policy, "max_buffer", None)
    return _run(config, arrivals, arrivals, slots, delivers, select, maxb)


def simulate_policy(config: SimConfig, policy) -> SimResult:
    """Run the direct-mode simulation of a buffer policy.

    ``policy`` maps a buffer (importance values, oldest first) to a 1-based
    selection index and exposes ``max_buffer`` (its window K, or None for an
    untruncated buffer).  A policy carrying its action table (``actions``
    per level, over ``values``) is read by table.  Infeasible actions abort
    with the offending state; a table is checked whole before the first slot.
    """
    model = config.model
    if model is None:
        raise ValueError("simulate_policy needs a model in the config")
    arr_rng, tim_rng = _streams(config.seed)
    digits = _draw_arrival_digits(model, arr_rng, config.horizon)
    return _run_packets(config, policy, digits, _speak_slots(model, tim_rng, config.horizon))


def simulate_erasure(config: SimConfig, policy) -> SimResult:
    """Erasure-commitment mode: commit before each slot, deliver on success.

    Requires geometric interspeaking times (success probability p, erasure
    probability 1 - p).  The sender commits to the packet its stationary
    policy would select from the current buffer before knowing whether the
    slot's transmission will survive; on success the commitment becomes the
    selection and everything older is charged.
    """
    model = config.model
    if model is None:
        raise ValueError("simulate_erasure needs a model in the config")
    if not isinstance(model.z, Geometric):
        raise ValueError("erasure mode requires geometric interspeaking times")
    arr_rng, tim_rng = _streams(config.seed)
    digits = _draw_arrival_digits(model, arr_rng, config.horizon)
    success = tim_rng.random(config.horizon) < model.z.p
    return _run_packets(config, policy, digits, _slots_where(success), success)


def simulate_bit_policy(config: SimConfig, source, policy) -> SimResult:
    """Bit-chunk mode for the headerless problem of the buffer-length MDP.

    The sender holds raw bits (1 important with importance v, 0 with
    importance 1) and transmits N-bit chunks.  ``policy`` is either a plain
    length policy (``action(l)`` gives the chunk end index) or a Tunstall
    threshold policy (``parse_newest_first``); both expose ``n_bits`` and
    ``max_buffer``.
    """
    arr_rng, tim_rng = _streams(config.seed)
    # bytes hold one byte per slot where a list would hold an 8-byte pointer
    bits = (arr_rng.random(config.horizon) < source.q).astype(np.int8).tobytes()
    weight = (1.0, source.v)
    importance = [weight[b] for b in bits]
    speaks = map(int, _slots_where(tim_rng.random(config.horizon) < source.p))
    N = policy.n_bits
    tunstall = hasattr(policy, "parse_newest_first")

    def select(t, l):
        if tunstall and l > policy.tau + N:
            # unavoidable skips: keep tau bits, parse the sendable region newest-first
            sendable = l - policy.tau
            return sendable - policy.parse_newest_first(bits[t - l : t], sendable), sendable
        s = int(policy.action(l))
        return max(s - N, 0), s

    maxb = getattr(policy, "max_buffer", None)
    return _run(config, bits, importance, speaks, repeat(True), select, maxb)
