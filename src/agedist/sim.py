"""Monte Carlo simulation of the discrete-time model; the universal oracle.

Randomness comes from numpy's Philox generator, split by
``SeedSequence.spawn`` into two substreams of the config seed: stream 0
drives arrivals (one packet, or one bit, per slot), stream 1 timing.  Each
per-slot draw is taken ``DRAW_CHUNK`` uniforms at a time: the same stream
as one ``rng.random(horizon)`` call, without its horizon-long float64
array.  Erasure mode is direct mode: with geometric gaps the timing stream
is one Bernoulli(p) success flag per slot, which is both the speaking
process and the erasure process, and a commitment made at an erased slot
is lost with it.  So ``simulate_erasure`` checks its model and runs
``simulate_policy``, and every route asks its policy at delivering slots
only.

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
- S3 (``S3Policy.starts``) counts the important arrivals it has consumed,
  one list comprehension per ``KEY_CHUNK`` deliveries.
- Any other policy is a plain callable: ``_run`` calls it with the buffer
  slice at each delivering slot.

Before the first slot every length of a bit policy's row is checked by
the rule the callable route applies per query: ``1 <= s <= l``, and no
pick of a ``v_min`` packet unless it is the newest.  An action table is
checked by the solver's ``check_chain_table``; a chain table's state picks
its newest entry or the oldest of its nearest ancestor that sends its
oldest, so the rule adds one check: no such state of length >= 2 has
``v_min`` oldest.

Distortion and age are accounted after the walk, by numpy.  Every arrival
is charged its importance unless a delivery sends it: a delivery passes
over it, or it falls off the window K (slot j's arrival at slot j + K).
Entries leave from the oldest end, so these charges come in arrival order,
and each arrival's is read from its value index.  Excess age is recorded
per delivery.  After a burn-in of 1% of the horizon, standard errors come
from the means of ``BATCHES`` equal slot spans, each summed by a
sequential ``cumsum``, so the result has the bits of a loop that charged
each slot as it went.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from .model import Geometric, Model, is_number
from .solver import check_chain_table
from .statetree import StateTree

MAX_HORIZON = 2**31 - 1  # slots and lengths are int32 in the trajectory
BATCHES = 32  # equal slot spans behind each batch-means standard error
KEY_CHUNK = 4096  # deliveries per list comprehension of a walk, per pass of its table, per age-area sum
ACCOUNT_BLOCK = 1 << 13  # arrivals per accounting pass: its two buffers stay in cache, reused
DRAW_CHUNK = 1 << 14  # uniforms per rng.random call: one stream, no horizon-long float64 array


@dataclass(frozen=True)
class SimConfig:
    """Run length, seed and model; the first 1% of the horizon is burn-in."""

    horizon: int
    seed: int
    model: Model | None = None

    def __post_init__(self):
        for name, x in (("horizon", self.horizon), ("seed", self.seed)):
            if not is_number(x, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {x!r}")
        if self.horizon < 10_000:
            raise ValueError(f"horizon must be at least 10^4, got {self.horizon}")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be at most 2^31 - 1 (int32 trajectories), got {self.horizon}")
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")

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
        """The result's fields as strict JSON: a standard error of fewer than two batches is null, not NaN."""
        doc = {"delta_e": self.delta_e, "se_delta": self.se_delta, "d": self.d, "se_d": self.se_d}
        doc = {name: x if math.isfinite(x) else None for name, x in doc.items()}
        return doc | {"horizon": self.horizon, "seed": self.seed}

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
    """(offset, uniforms) pairs that together are the stream of ``rng.random(n)``, each drawn into one reused buffer."""
    buf = np.empty(min(DRAW_CHUNK, n))
    for lo in range(0, n, DRAW_CHUNK):
        yield lo, rng.random(out=buf[: min(DRAW_CHUNK, n - lo)])


def _inverse_cdf(probs, u: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out`` = each uniform's index: the count of the first len(probs) - 1 cumulative sums <= u.

    That is ``searchsorted(cumsum(probs), u, side="right")`` clipped at the last index.
    """
    out[...] = 0
    for c in np.cumsum(probs)[:-1]:
        out += u >= c
    return out


def _draw_arrival_digits(model: Model, rng: np.random.Generator, n: int) -> np.ndarray:
    """Index into ``model.v.values`` of each slot's arrival, in the smallest unsigned dtype."""
    digits = np.empty(n, np.min_scalar_type(model.v.size - 1))
    for lo, u in _uniforms(rng, n):
        _inverse_cdf(model.v.probs, u, digits[lo : lo + len(u)])
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
    chunks, t, u, gaps = [], 0, np.empty(DRAW_CHUNK), np.empty(DRAW_CHUNK, np.uint8)
    while t <= horizon:  # gap - 1 is below FINITE_PMF_MAX_SUPPORT, so it fits uint8
        _inverse_cdf(model.z.probs, rng.random(out=u), gaps)
        ends = t + np.cumsum(gaps + np.int64(1))
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
    tree = StateTree(model, len(tables) - 1)
    check_chain_table(tree, tables)
    K, m = tree.K, tree.m
    for l in range(2, K + 1):
        stale = tables[l][: m ** (l - 1)] == 1  # oldest entry v_min, sent
        if stale.any():
            entries = list(tree.entries_of(l, int(stale.argmax())))
            raise RuntimeError(f"policy table has infeasible action 1 for buffer {entries}")

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


def _run(speaks, pick, max_buffer):
    """The per-delivery loop of a plain callable: l and removed per delivery, after an empty delivery at slot 0.

    At each delivering slot t of ``speaks``, ``pick(t, l)`` selects the s-th
    oldest of the newest l arrivals, and the oldest s entries leave.
    ``max_buffer`` is the window K.
    """
    lengths, removals = array("i", [0]), array("i", [0])
    put_l, put_removed = lengths.append, removals.append
    l = prev = 0
    for t in memoryview(speaks):
        l += t - prev
        prev = t
        if l > max_buffer:
            l = max_buffer
        s = pick(t, l)
        if not 1 <= s <= l:
            raise RuntimeError(f"policy returned infeasible action {s} for length {l}")
        put_l(l)
        put_removed(s)
        l -= s
    return np.frombuffer(lengths, np.intc), np.frombuffer(removals, np.intc)


def _account(config: SimConfig, weights, codes, K, speaks, dl, ds, dr) -> SimResult:
    """SimResult from a trajectory, charged by numpy in arrival order.

    ``dl``, ``ds`` and ``dr`` hold l, skipped and removed per delivery,
    after an empty delivery at slot 0.  Delivery k at slot t_k removes the
    arrival indices first_k = t_k - l_k .. left_k - 1, left_k = first_k +
    removed_k, and sends the newest removed_k - skipped_k of them.  A span's
    arrivals end at the buffer's start after its last slot E, max(left_k, E -
    K) for the last delivery k at or before E; the horizon closes the run.
    Each of a span's arrivals has left the buffer within the span, so it is
    charged its importance unless a delivery sent it: it was passed over or
    fell off the window.  Entries leave from the oldest end, so arrival order
    is slot order: a sequential ``cumsum`` over each span's arrivals, with
    +0.0 (which changes no float) at each sent one, ``ACCOUNT_BLOCK`` at a
    time with the total carried, has the bits of a per-slot loop.
    """
    horizon, burn, nb = config.horizon, config.burn, BATCHES
    weights = np.asarray(weights, dtype=float)
    # span 0 is the burn-in; span i >= 1 is batch i - 1, slots (ends[i], ends[i + 1]]
    ends = np.array([0] + [burn + (i * (horizon - burn) + nb - 1) // nb for i in range(nb + 1)])
    at = np.searchsorted(speaks, ends, side="right")  # the last delivery of each span
    age = np.diff(np.cumsum(dl - dr)[at])
    first = np.zeros(len(dl), np.int32)
    np.subtract(speaks, dl[1:], out=first[1:])
    bounds = np.maximum(first[at] + dr[at], ends - K).tolist()
    # excess age tau - left_k over the post-burn-in slots tau in (t_k, t_(k+1)], t_(n+1) = horizon,
    # read off max(t, burn) and added in delivery order KEY_CHUNK at a time
    t = np.maximum(np.concatenate(([0], speaks, [horizon])), burn)
    raw_age = 0.0
    for lo in range(0, len(dl), KEY_CHUNK):
        chunk = slice(lo, lo + KEY_CHUNK)
        a, b, left = t[:-1][chunk], t[1:][chunk], first[chunk] + dr[chunk]
        areas = (a + 1 + b) * (b - a) / 2.0 - (b - a) * left
        areas[0] += raw_age
        raw_age = np.cumsum(areas, out=areas)[-1]
    del t, a, b  # views of t
    sent, count = first[1:], dr[1:] - ds[1:]  # delivery k at index k - 1 sends sent_k .. sent_k + count_k - 1
    sent += ds[1:]
    charge = np.zeros(nb + 1)
    buf = np.empty(ACCOUNT_BLOCK)  # reused by every block
    for i in range(nb + 1):
        for lo in range(bounds[i], bounds[i + 1], ACCOUNT_BLOCK):
            hi = min(lo + ACCOUNT_BLOCK, bounds[i + 1])
            c = buf[: hi - lo]
            weights.take(codes[lo:hi], out=c)
            # zero the sends from delivery k on, which overlap the block; a send that straddles
            # an end of the block is clipped to it
            k0, k1 = np.searchsorted(sent, (lo, hi)).tolist()
            k = k0 - 1 if k0 and sent[k0 - 1] + count[k0 - 1] > lo else k0
            n = count[k:k1]
            idx = np.repeat(sent[k:k1] - lo - (np.cumsum(n) - n), n)  # each start, less the sends before it
            idx += np.arange(len(idx), dtype=idx.dtype)
            c[np.clip(idx, 0, hi - lo - 1, out=idx)] = 0.0
            c[0] += charge[i]
            charge[i] = np.cumsum(c, out=c)[-1]
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


def simulate_policy(config: SimConfig, policy) -> SimResult:
    """Run the direct-mode simulation of a buffer policy; a delivery skips every packet older than the pick.

    ``policy`` maps a buffer (importance values, oldest first) to a 1-based
    selection index and exposes ``max_buffer`` (its window K, or None for an
    untruncated buffer).  A policy carrying its action table (``actions``
    per level, over ``values``) walks its rest table, and S3 (a policy with
    ``starts``) its count of important arrivals; any other policy is called
    with the buffer slice at each delivering slot.  Infeasible actions abort
    with the offending state; a table is checked whole before the first slot.
    """
    model = config.model
    if model is None:
        raise ValueError("simulate_policy needs a model in the config")
    arr_rng, tim_rng = _streams(config.seed)
    digits = _draw_arrival_digits(model, arr_rng, config.horizon)
    speaks = _speak_slots(model, tim_rng, config.horizon)
    values = model.v.values
    K = config.horizon  # an untruncated buffer never holds more than the horizon
    if hasattr(policy, "actions") and hasattr(policy, "values"):
        rows, K = _table_rows(model, policy, digits, speaks)
        dl, dr = _walk(speaks, K, K, rows)
    elif hasattr(policy, "starts"):
        important = np.asarray(values) > model.v.v_min  # per value index
        start = policy.starts(important[digits], speaks, KEY_CHUNK)
        dl, dr = np.zeros((2, len(start)), np.int32)
        np.subtract(speaks, start[:-1], out=dl[1:])
        np.subtract(start[1:], start[:-1], out=dr[1:])
        del start
    else:
        arrivals = np.array(values, dtype=object)[digits].tolist()
        v_min = model.v.v_min

        def pick(t, l):
            entries = arrivals[t - l : t]
            s = int(policy(entries))
            if 1 <= s < l and entries[s - 1] <= v_min:
                raise RuntimeError(f"policy returned infeasible action {s} for buffer {entries}")
            return s

        if getattr(policy, "max_buffer", None) is not None:
            K = policy.max_buffer
        dl, dr = _run(speaks, pick, K)
    ds = dr - 1
    ds[0] = 0
    return _account(config, values, digits, K, speaks, dl, ds, dr)


def simulate_erasure(config: SimConfig, policy) -> SimResult:
    """Erasure-commitment mode: commit before each slot, deliver on success.

    Requires geometric interspeaking times (success probability p, erasure
    probability 1 - p).  The sender commits to the packet its policy would
    select from the current buffer before knowing whether the slot's
    transmission will survive; on success the commitment becomes the
    selection and everything older is charged.  The successful slots are
    direct mode's speaking slots and an erased commitment is lost, so this
    is ``simulate_policy`` on the same streams.
    """
    if config.model is None:
        raise ValueError("simulate_erasure needs a model in the config")
    if not isinstance(config.model.z, Geometric):
        raise ValueError("erasure mode requires geometric interspeaking times")
    return simulate_policy(config, policy)


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
    ``n_bits``, ``max_buffer`` and ``action(l)``, the chunk end index at
    each of an array of lengths: a plain length policy, or a threshold
    policy with ``tau`` on an untruncated buffer, which keeps tau bits
    beyond length tau + N.  Its leftover ``l - action(l)`` is read in one
    call for the lengths up to that cap, or up to the horizon if smaller,
    and checked before the first slot.  A Tunstall threshold policy
    (``word_lengths``) sends, in the skip states l > tau + N, the word
    parsed newest-first from the sendable region's newest bit.
    """
    arr_rng, tim_rng = _streams(config.seed)
    bits = _flags(arr_rng, source.q, config.horizon).view(np.int8)
    speaks = _slots_where(_flags(tim_rng, source.p, config.horizon))
    N, K = policy.n_bits, policy.max_buffer
    cap = min(policy.tau + N, config.horizon) if K is None else K  # no buffer outgrows the horizon
    l = np.arange(1, cap + 1)
    s = np.asarray(policy.action(l))
    bad = np.flatnonzero((s < 1) | (s > l))
    if len(bad):
        raise RuntimeError(f"policy returned infeasible action {s[bad[0]]} for length {bad[0] + 1}")
    after = np.zeros(2 * cap, np.min_scalar_type(cap))
    after[1 : cap + 1] = l - s
    after[cap + 1 :] = after[cap]
    dl, dr = _walk(speaks, cap, K, lambda lo, hi: after)
    ds = dr - N
    np.maximum(ds, 0, out=ds)
    if hasattr(policy, "word_lengths"):
        _parse_skips(policy, bits, speaks, dl, dr, ds)
    K = config.horizon if K is None else K
    return _account(config, (1.0, source.v), bits, K, speaks, dl, ds, dr)
