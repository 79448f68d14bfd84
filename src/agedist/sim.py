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
an action and a delivery removes the oldest entries it consumed.  The loop
records only this trajectory: l, skipped and removed per delivery, in
``array('q')`` buffers that hold no Python ints.

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

Distortion and age are accounted after the loop, by numpy, one slot span
at a time, so no temporary spans the horizon.  Distortion is charged when
an entry becomes unsendable: a delivery passes over it, or it falls off
the window K (slot j's arrival at slot j + K); the fall-offs follow from
the trajectory.  Each importance is read on demand from the arrival's
value index.  Excess age is recorded per delivery.  After a burn-in of 1%
of the horizon, standard errors come from the means of ``BATCHES`` equal
slot spans, each summed in slot order by a sequential ``cumsum``, so the
result has the bits of a loop that charged each slot as it went.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat

import numpy as np

from .model import Geometric, Model
from .statetree import buffer_entries

BATCHES = 32  # equal slot spans behind each batch-means standard error
KEY_CHUNK = 4096  # query slots per numpy pass of the rolling trie key
SHORT_RUN = 32  # below this inner run a table check tests the flat level, not a 3-d view


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
    digits = np.searchsorted(cum, rng.random(n), side="right")
    np.minimum(digits, len(cum) - 1, out=digits)  # in place: one int64 array at a time
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


def _run(config: SimConfig, weights, codes, speaks, select, max_buffer, success=None) -> SimResult:
    """The simulation loop of every mode: it records the l trajectory, numpy charges it.

    Slot j's arrival costs ``weights[codes[j - 1]]`` when it goes unsent.
    The query slots are the delivering slots ``speaks``, or with ``success``
    every slot, delivering where its flag is set.  At each query
    ``select(t, l)`` picks for the buffer of the newest l arrivals and
    returns ``(skipped, removed)``: on delivery the oldest ``removed``
    entries leave, the oldest ``skipped`` of them unsent, and the delivered
    entry has age ``l - removed``.  ``max_buffer`` is the window K, or None.
    """
    K = config.horizon if max_buffer is None else max_buffer  # l never exceeds the horizon
    if success is None:
        queries = zip(map(int, speaks), repeat(True))
    else:
        queries = zip(range(1, config.horizon + 1), success)
    # per delivery: l, skipped, removed, after an empty delivery at slot 0
    trajectory = array("q", [0]), array("q", [0]), array("q", [0])
    put_l, put_skipped, put_removed = (a.append for a in trajectory)
    l = prev = 0
    for t, deliver in queries:
        l += t - prev
        prev = t
        if l > K:
            l = K
        skipped, removed = select(t, l)
        if not 1 <= removed <= l:
            raise RuntimeError(f"policy returned infeasible action {removed} for length {l}")
        if deliver:
            put_l(l)
            put_skipped(skipped)
            put_removed(removed)
            l -= removed
    return _account(config, np.asarray(weights, dtype=float), codes, K, speaks, trajectory)


def _account(config: SimConfig, weights, codes, K, speaks, trajectory) -> SimResult:
    """SimResult from the loop's trajectory, accounted by numpy one slot span at a time.

    After delivery k everything up to the delivered entry's arrival slot
    ``S_k = t_k - l_k + removed_k`` has left the buffer, so the arrival of
    slot u - K falls off at each slot u in (S_k + K, t_(k+1)], and the
    horizon closes the run like one more delivery.  A span's charges are
    added in slot order, a fall-off before the delivery of its slot and a
    skip's entries oldest first, by sequential ``cumsum``: the float
    additions of a per-slot loop, so its bits.
    """
    horizon, burn, nb = config.horizon, config.burn, BATCHES
    # span 0 is the burn-in; span i >= 1 is batch i - 1, slots (ends[i], ends[i + 1]]
    ends = [0] + [burn + (i * (horizon - burn) + nb - 1) // nb for i in range(nb + 1)]
    points = np.concatenate(([0], speaks, [horizon]))  # delivery k's slot at index k
    dl, ds, dr = (np.frombuffer(a, np.int64) for a in trajectory)
    at = np.searchsorted(speaks, ends, side="right")
    age, charge = np.zeros(nb + 1), np.zeros(nb + 1)
    raw_age = 0.0
    for i in range(nb + 1):
        k = slice(at[i] + 1, at[i + 1] + 1)  # the span's deliveries
        t, skipped, oldest = points[k], ds[k], points[k] - dl[k]  # oldest: the buffer's 0-based start
        age[i] = (dl[k] - dr[k]).sum()
        skips = np.zeros(len(t))
        for j in range(skipped.max(initial=0)):  # left to right, one running sum per delivery
            on = skipped > j
            skips[on] += weights[codes[oldest[on] + j]]
        # the span's points and the next one, whose fall-offs may reach back into the span
        b, before = points[at[i] + 1 : at[i + 1] + 2], slice(at[i], at[i + 1] + 1)
        last_t, last_s = points[before], points[before] - dl[before] + dr[before]
        x = np.maximum(b - last_s - K, 0)
        u = np.repeat(b - x + 1 - (np.cumsum(x) - x), x) + np.arange(x.sum())
        u = u[(u > ends[i]) & (u <= ends[i + 1])]
        events = np.insert(weights[codes[u - K - 1]], np.searchsorted(u, t, side="right"), skips)
        charge[i] = np.cumsum(events)[-1] if len(events) else 0.0
        # excess age tau - S_k over the post-burn-in slots tau in (t_k, t_(k+1)]; the last span closes
        n_areas = len(t) + (i == nb)
        a = np.maximum(last_t[:n_areas], burn)
        n = np.maximum(b[:n_areas] - a, 0)
        areas = (a + 1 + b[:n_areas]) * n / 2.0 - n * last_s[:n_areas]
        raw_age = np.cumsum(np.append(raw_age, areas))[-1]
    return _batch_means(config, age[1:], np.diff(at)[1:], charge[1:], np.diff(ends)[1:], raw_age)


def _batch_means(config: SimConfig, age, speaks, charge, slot_counts, raw_age) -> SimResult:
    """SimResult from the per-batch sums of age, deliveries and charge."""
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
        raw_age=float(raw_age / n_eff),
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
        run = m ** (l - s)  # action s picks entry s - 1 (oldest first), whose digit holds for run entries
        if run >= SHORT_RUN:  # the picked digit is the middle axis of this view
            stale = bad.reshape(m ** (s - 1), m, -1)[:, 0]
            stale |= acts.reshape(m ** (s - 1), m, -1)[:, 0] == s
        else:  # the view would loop once per short run: test the flat level against a tiled mask
            stale = np.tile(np.repeat((True, False), (run, (m - 1) * run)), m ** (s - 1))
            stale &= acts == s
            bad |= stale
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
    values = model.v.values
    if hasattr(policy, "actions") and hasattr(policy, "values"):
        select, K = _table_select(model, policy, digits, speaks)
        return _run(config, values, digits, speaks, select, K)
    arrivals = np.array(values, dtype=object)[digits].tolist()
    v_min = model.v.v_min

    def select(t, l):
        entries = arrivals[t - l : t]
        s = int(policy(entries))
        if 1 <= s < l and entries[s - 1] <= v_min:
            raise RuntimeError(f"policy returned infeasible action {s} for buffer {entries}")
        return s - 1, s

    maxb = getattr(policy, "max_buffer", None)
    return _run(config, values, digits, speaks, select, maxb, success)


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
    speaks = _slots_where(tim_rng.random(config.horizon) < source.p)
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
    return _run(config, (1.0, source.v), np.frombuffer(bits, np.int8), speaks, select, maxb)
