"""Monte Carlo simulation of the discrete-time model; the universal oracle.

Randomness comes from numpy's Philox generator, split by
``SeedSequence.spawn`` into two substreams of the config seed: stream 0
drives arrivals (one packet, or one bit, per slot), stream 1 timing.  With
geometric gaps the timing stream is one Bernoulli success flag per slot in
both the direct and the erasure-commitment modes, so under a shared seed
the two modes see the same arrivals and speaking slots.  Each per-slot
draw is taken ``DRAW_CHUNK`` uniforms at a time: the same stream as one
``rng.random(horizon)`` call, without its horizon-long float64 array.

Deliveries and window drops both take entries from the oldest end, so the
buffer at slot t is the newest l arrivals, ``arrivals[t - l:t]``, and the
integer l is the only state.  At each delivery l grows by the gap (capped
at the window K), the policy picks, and the oldest entries the pick
consumed leave.  Every route records only this trajectory, l, skipped and
removed per delivery, and the routes differ in how they pick.

- Rest tables.  A policy that carries a per-level action table,
  ``actions`` and ``values`` (a ``PolicySolution`` or a
  ``strategies.window_table``), and the bit policies have every pick
  computed before the walk.  ``after[k, l]``, the entries left after
  delivery k at length l, is built by numpy ``KEY_CHUNK`` deliveries at a
  time, and the walk ``r = after[k][min(r + g_k, cap)]`` is one table read
  per delivery; numpy then derives l and removed.  An action table's pick
  is ``actions[l][key_k % m**l]``, where the rolling key ``key_k`` is the
  mixed-radix number of the last K arrival digits at the delivery slot,
  newest least significant; each level is read in place.  A bit policy
  removes a number that depends on l alone, so one row serves every
  delivery, and a Tunstall policy's skip-state word lengths are parsed for
  all deliveries at once.
- S3 (``index_pick``) picks in O(1) from two index arrays over the
  arrivals, called once per delivery by ``_run``.
- Any other policy is a plain callable: ``_run`` calls it with the buffer
  slice, at every slot in erasure mode.

Before the first slot every action table entry, and every length of a bit
policy's row, is checked against the rule the callable route applies per
query: ``1 <= s <= l``, and no pick of a ``v_min`` packet unless it is the
newest.  A checked table, like S3's pick, cannot fail on a lost erasure
slot, so erasure mode walks only the delivering slots and stays
bit-identical to direct mode.

Distortion and age are accounted after the walk, by numpy, one slot span
at a time.  Distortion is charged when an entry becomes unsendable: a
delivery passes over it, or it falls off the window K (slot j's arrival at
slot j + K); the fall-offs follow from the trajectory.  Each importance is
read on demand from the arrival's value index.  Excess age is recorded per
delivery.  After a burn-in of 1% of the horizon, standard errors come from
the means of ``BATCHES`` equal slot spans, each summed in slot order by a
sequential ``cumsum``, so the result has the bits of a loop that charged
each slot as it went.
"""

from __future__ import annotations

import json
from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from .model import Geometric, Model
from .statetree import buffer_entries

MAX_HORIZON = 2**31 - 1  # slots and lengths are int32 in the trajectory
BATCHES = 32  # equal slot spans behind each batch-means standard error
KEY_CHUNK = 4096  # deliveries per numpy pass: rolling trie keys, rest tables, skip sums
DRAW_CHUNK = 1 << 14  # uniforms per rng.random call: one stream, no horizon-long float64 array
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
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be at most 2^31 - 1 (int32 trajectories), got {self.horizon}")

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


def _uniforms(rng: np.random.Generator, n: int):
    """(offset, uniforms) pairs that together are the stream of ``rng.random(n)``."""
    for lo in range(0, n, DRAW_CHUNK):
        yield lo, rng.random(min(DRAW_CHUNK, n - lo))


def _draw_arrival_digits(model: Model, rng: np.random.Generator, n: int) -> np.ndarray:
    """Index into ``model.v.values`` of each slot's arrival, in the smallest unsigned dtype."""
    cum = np.cumsum(model.v.probs)
    digits = np.empty(n, np.min_scalar_type(len(cum) - 1))
    for lo, u in _uniforms(rng, n):
        chunk = np.searchsorted(cum, u, side="right")
        np.minimum(chunk, len(cum) - 1, out=chunk)  # a draw past the rounded last sum
        digits[lo : lo + len(u)] = chunk
    return digits


def _flags(rng: np.random.Generator, prob: float, n: int) -> np.ndarray:
    """``rng.random(n) < prob``, one bool per slot."""
    flags = np.empty(n, dtype=bool)
    for lo, u in _uniforms(rng, n):
        np.less(u, prob, out=flags[lo : lo + len(u)])
    return flags


def _slots_where(flags: np.ndarray) -> np.ndarray:
    """1-based slots whose flag is set; shifted in place, so no second index array is made."""
    slots = np.flatnonzero(flags)
    slots += 1
    return slots


def _speak_slots(model: Model, rng: np.random.Generator, horizon: int) -> np.ndarray:
    """1-based slots at which the sender speaks."""
    if isinstance(model.z, Geometric):
        return _slots_where(_flags(rng, model.z.p, horizon))
    cum = np.cumsum(model.z.probs)
    chunks = []
    t = 0
    while t <= horizon:
        gaps = np.searchsorted(cum, rng.random(1024), side="right")
        np.minimum(gaps, len(cum) - 1, out=gaps)  # a draw past the rounded last sum
        ends = t + np.cumsum(gaps + 1)
        chunks.append(ends[ends <= horizon])
        t = int(ends[-1])
    return np.concatenate(chunks)


def _walk(speaks: np.ndarray, cap: int, window, table):
    """The l and removed trajectory of a rest-table policy, after an empty delivery at slot 0.

    ``table(lo, hi)`` gives ``after[k, l]``, the entries left after delivery
    k at length l, for deliveries lo .. hi - 1: an (hi - lo, 2 cap) array, or
    one row of 2 cap entries that serves every delivery.  Columns above cap
    repeat column cap, so with r < cap the walk ``r = after[k][r + min(g_k,
    cap)]`` reads ``after[k][min(r + g_k, cap)]`` without a call.  ``window``
    is K, or None for an untruncated buffer, whose leftover beyond the cap
    is the cap's.
    """
    n = len(speaks)
    lengths = np.zeros(n + 1, dtype=np.int32)  # the gaps, then l
    lengths[1:] = speaks
    lengths[2:] -= speaks[:-1]
    gaps = lengths[1:]
    rest = np.zeros(n + 1, np.min_scalar_type(cap))
    r = 0
    for lo in range(0, n, KEY_CHUNK):
        hi = min(lo + KEY_CHUNK, n)
        after = table(lo, hi)
        base = np.minimum(gaps[lo:hi], cap)
        if after.ndim == 2:
            base += np.arange(0, after.size, 2 * cap)
        flat = memoryview(after.reshape(-1))  # an item is a Python int
        rest[lo + 1 : hi + 1] = [r := flat[b + r] for b in memoryview(base)]
    gaps += rest[:-1]
    if window is not None:
        np.minimum(lengths, window, out=lengths)
    return lengths, lengths - rest


def _table_rows(model: Model, policy, digits: np.ndarray, speaks: np.ndarray):
    """A checked action table as ``_walk``'s rest table at the delivering ``speaks``, and its K."""
    values = model.v.values
    if tuple(policy.values) != values:
        raise ValueError(f"policy values {tuple(policy.values)} differ from the model's {values}")
    tables = [np.asarray(acts) for acts in policy.actions]
    K = len(tables) - 1
    for l in range(1, K + 1):
        _check_table_level(tables[l], l, values)
    m = len(values)

    def rows(lo: int, hi: int) -> np.ndarray:
        # key_k: the mixed-radix number of the digits of slots t_k - K + 1 .. t_k,
        # newest least significant.  Slots before slot 1 read slot 1's digit: they
        # sit at powers m**j with j >= t_k >= l, so they drop out of every key % m**l.
        idx = speaks[lo:hi] - K  # 0-based index of each key's oldest digit
        key = np.zeros(hi - lo, dtype=np.int64)
        for _ in range(K):
            # Horner in int64: uint8 digits are never multiplied in their own dtype
            key *= m
            key += digits.take(idx, mode="clip")
            idx += 1
        after = np.zeros((hi - lo, 2 * K), np.min_scalar_type(K))
        for l in range(1, K + 1):
            after[:, l] = l - tables[l].take(key % m**l)  # read in place
        after[:, K + 1 :] = after[:, K, None]
        return after

    return rows, K


def _run(config: SimConfig, weights, codes, speaks, pick, max_buffer, success=None) -> SimResult:
    """The per-query loop of S3 and plain callables: it records l and removed, numpy charges them.

    Slot j's arrival costs ``weights[codes[j - 1]]`` when it goes unsent.
    The query slots are the delivering slots ``speaks``, or with ``success``
    every slot, delivering where its flag is set.  At each query
    ``pick(t, l)`` selects the s-th oldest of the newest l arrivals: on
    delivery the oldest s entries leave, the oldest s - 1 of them unsent.
    ``max_buffer`` is the window K, or None.
    """
    K = config.horizon if max_buffer is None else max_buffer  # l never exceeds the horizon
    if success is None:
        queries = zip(memoryview(speaks), repeat(True))
    else:
        queries = zip(range(1, config.horizon + 1), memoryview(success))
    # per delivery: l and removed, after an empty delivery at slot 0
    lengths, removals = array("i", [0]), array("i", [0])
    put_l, put_removed = lengths.append, removals.append
    l = prev = 0
    for t, deliver in queries:
        l += t - prev
        prev = t
        if l > K:
            l = K
        s = pick(t, l)
        if not 1 <= s <= l:
            raise RuntimeError(f"policy returned infeasible action {s} for length {l}")
        if deliver:
            put_l(l)
            put_removed(s)
            l -= s
    del pick  # S3's index arrays
    dl, dr = (np.frombuffer(a, np.intc) for a in (lengths, removals))
    ds = dr - 1
    ds[0] = 0
    return _account(config, weights, codes, K, speaks, dl, ds, dr)


def _account(config: SimConfig, weights, codes, K, speaks, dl, ds, dr) -> SimResult:
    """SimResult from a trajectory, accounted by numpy one slot span at a time.

    ``dl``, ``ds`` and ``dr`` hold l, skipped and removed per delivery,
    after an empty delivery at slot 0.  After delivery k everything up to
    the delivered entry's arrival slot ``S_k = t_k - l_k + removed_k`` has
    left the buffer, so the arrival of slot u - K falls off at each slot u
    in (S_k + K, t_(k+1)], and the horizon closes the run like one more
    delivery.  A span's charges are added in slot order, a fall-off before
    the delivery of its slot and a skip's entries oldest first, by
    sequential ``cumsum``: the float additions of a per-slot loop, so its
    bits.
    """
    horizon, burn, nb = config.horizon, config.burn, BATCHES
    weights = np.asarray(weights, dtype=float)
    # span 0 is the burn-in; span i >= 1 is batch i - 1, slots (ends[i], ends[i + 1]]
    ends = [0] + [burn + (i * (horizon - burn) + nb - 1) // nb for i in range(nb + 1)]
    points = np.concatenate(([0], speaks, [horizon]))  # delivery k's slot at index k
    at = np.searchsorted(speaks, ends, side="right")
    # each delivery's skip sum, its entries added oldest first: one pass per skip depth,
    # KEY_CHUNK deliveries at a time, so no index array spans the run
    skips = np.zeros(len(dl))
    for lo in range(1, len(dl), KEY_CHUNK):
        on = np.flatnonzero(ds[lo : lo + KEY_CHUNK]) + lo
        entry = points[on] - dl[on]  # each skip's next entry, from the buffer's 0-based start
        for depth in range(1, int(ds[lo : lo + KEY_CHUNK].max()) + 1):
            skips[on] += weights[codes[entry]]
            more = ds[on] > depth
            on, entry = on[more], entry[more] + 1
    age, charge = np.zeros(nb + 1), np.zeros(nb + 1)
    raw_age = 0.0
    for i in range(nb + 1):
        k = slice(at[i] + 1, at[i + 1] + 1)  # the span's deliveries
        t = points[k]
        age[i] = (dl[k] - dr[k]).sum()
        # the span's points and the next one, whose fall-offs may reach back into the span
        b, before = points[at[i] + 1 : at[i + 1] + 2], slice(at[i], at[i + 1] + 1)
        last_t, last_s = points[before], points[before] - dl[before] + dr[before]
        x = np.maximum(b - last_s - K, 0)
        u = np.repeat(b - x + 1 - (np.cumsum(x) - x), x) + np.arange(x.sum())
        u = u[(u > ends[i]) & (u <= ends[i + 1])]
        events = np.insert(weights[codes[u - K - 1]], np.searchsorted(u, t, side="right"), skips[k])
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


def _run_packets(config: SimConfig, policy, digits, speaks, success=None) -> SimResult:
    """Direct and erasure modes: a delivery skips every packet older than the pick.

    ``digits`` are the arrivals' value indices and ``speaks`` the delivering
    slots; in erasure mode ``success`` holds every slot's flag.  A policy
    carrying ``actions`` and ``values`` walks its rest table, and S3 (a
    policy with ``index_pick``) picks by index, both over the delivering
    slots alone.  Any other policy is called with the buffer slice at each
    query slot, which in erasure mode is every slot.
    """
    model = config.model
    values = model.v.values
    if hasattr(policy, "actions") and hasattr(policy, "values"):
        rows, K = _table_rows(model, policy, digits, speaks)
        dl, dr = _walk(speaks, K, K, rows)
        ds = dr - 1
        ds[0] = 0
        return _account(config, values, digits, K, speaks, dl, ds, dr)
    if hasattr(policy, "index_pick"):
        important = np.asarray(values) > model.v.v_min  # per value index
        return _run(config, values, digits, speaks, policy.index_pick(important[digits]), policy.max_buffer)
    arrivals = np.array(values, dtype=object)[digits].tolist()
    v_min = model.v.v_min

    def pick(t, l):
        entries = arrivals[t - l : t]
        s = int(policy(entries))
        if 1 <= s < l and entries[s - 1] <= v_min:
            raise RuntimeError(f"policy returned infeasible action {s} for buffer {entries}")
        return s

    maxb = getattr(policy, "max_buffer", None)
    return _run(config, values, digits, speaks, pick, maxb, success)


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
    success = _flags(tim_rng, model.z.p, config.horizon)
    return _run_packets(config, policy, digits, _slots_where(success), success)


def _parse_skips(policy, bits, speaks, dl, dr, ds) -> None:
    """Set ``ds`` in a Tunstall policy's skip states, l > tau + N, from its parsed word lengths.

    There ``removed`` is the sendable region, whose newest bit is the
    arrival of slot t - tau; the skip is what the first word leaves of it.
    """
    skip = np.flatnonzero(dl > policy.tau + policy.n_bits)
    sendable = dr[skip]
    words = policy.word_lengths(bits, speaks[skip - 1] - policy.tau - 1)
    ds[skip] = sendable - np.minimum(words, sendable)


def simulate_bit_policy(config: SimConfig, source, policy) -> SimResult:
    """Bit-chunk mode for the headerless problem of the buffer-length MDP.

    The sender holds raw bits (1 important with importance v, 0 with
    importance 1) and transmits N-bit chunks.  ``policy`` exposes
    ``n_bits``, ``max_buffer`` and ``action(l)``, the chunk end index: a
    plain length policy, or a threshold policy with ``tau`` on an
    untruncated buffer, which keeps tau bits beyond length tau + N.  Its
    leftover ``l - action(l)`` is read once per length up to that cap and
    checked before the first slot.  A Tunstall threshold policy
    (``word_lengths``) sends, in the skip states l > tau + N, the word
    parsed newest-first from the sendable region's newest bit.
    """
    arr_rng, tim_rng = _streams(config.seed)
    bits = _flags(arr_rng, source.q, config.horizon).view(np.int8)
    speaks = _slots_where(_flags(tim_rng, source.p, config.horizon))
    N, K = policy.n_bits, policy.max_buffer
    cap = policy.tau + N if K is None else K
    after = np.zeros(2 * cap, np.min_scalar_type(cap))
    for l in range(1, cap + 1):
        s = int(policy.action(l))
        if not 1 <= s <= l:
            raise RuntimeError(f"policy returned infeasible action {s} for length {l}")
        after[l] = l - s
    after[cap + 1 :] = after[cap]
    dl, dr = _walk(speaks, cap, K, lambda lo, hi: after)
    ds = dr - N
    np.maximum(ds, 0, out=ds)
    if hasattr(policy, "word_lengths"):
        _parse_skips(policy, bits, speaks, dl, dr, ds)
    K = config.horizon if K is None else K
    return _account(config, (1.0, source.v), bits, K, speaks, dl, ds, dr)
