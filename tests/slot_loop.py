"""Literal per-slot simulation loops, the references the simulator's walks must match bit for bit.

``loop_run`` charges each fall-off and skip as it happens.  ``reference_packets``
runs it on a packet run's draws; in erasure mode the policy commits at every
slot, the literal erasure-commitment process, which ``simulate_erasure`` stands
in for by a walk over the delivering slots alone.
"""

import bisect
import itertools

import numpy as np

from agedist import sim
from agedist.statetree import buffer_index


def loop_run(config, weights, codes, speaks, select, max_buffer, success=None):
    """A per-slot loop charging each fall-off and skip at once; ``select(t, l)`` is ``(skipped, removed)``.

    ``select`` is asked for the newest l arrivals at each slot of ``speaks``,
    or, given the per-slot ``success`` flags, at every slot, only the
    successful ones delivering.
    """
    importance = [float(weights[c]) for c in codes]
    horizon, burn, nb = config.horizon, config.burn, sim.BATCHES
    ends = [burn + (i * (horizon - burn) + nb - 1) // nb for i in range(nb + 1)]
    age, count, charge = [0] * (nb + 1), [0] * (nb + 1), [0.0] * (nb + 1)
    if success is None:
        queries = zip(speaks.tolist(), itertools.repeat(True))
    else:
        queries = zip(range(1, horizon + 1), success.tolist())
    K, l, prev = max_buffer, 0, 0
    for t, deliver in itertools.chain(queries, [(horizon, None)]):
        l += t - prev
        prev = t
        if K is not None and l > K:
            for u in range(t - l + 1 + K, t + 1):  # slot u - K's arrival falls off at u
                charge[bisect.bisect_left(ends, u)] += importance[u - K - 1]
            l = K
        if deliver is None:
            break
        skipped, removed = select(t, l)
        if deliver:
            i = bisect.bisect_left(ends, t)
            age[i] += l - removed
            count[i] += 1
            for x in importance[t - l : t - l + skipped]:
                charge[i] += x
            l -= removed
    age, count, charge = np.array(age[1:], dtype=float), np.array(count[1:]), np.array(charge[1:])
    return sim._batch_means(config, age, count, charge, np.diff(ends))


def table_pick(table):
    """An action table (``values`` and per-level ``actions``) as a plain callable, asked per buffer.

    It hides the table, so the simulator takes its callable route.
    """

    def pick(entries):
        l, i = buffer_index(table.values, entries)
        return int(table.actions[l][i])

    pick.max_buffer = len(table.actions) - 1
    return pick


def reference_packets(cfg, policy, erasure=False):
    """``loop_run`` on a packet run's draws, calling ``policy`` with each buffer slice.

    In direct mode the calls are at the delivering slots, as the simulator
    makes them.  In erasure mode the policy commits at every slot: for a
    policy that depends on the buffer alone this agrees with the simulator,
    which asks at the delivering slots only.  An action table is asked per
    buffer through ``table_pick``.
    """
    if hasattr(policy, "actions"):
        policy = table_pick(policy)
    arr_rng, tim_rng = sim._streams(cfg.seed)
    digits = sim._draw_arrival_digits(cfg.model, arr_rng, cfg.horizon)
    if erasure:
        success = sim._flags(tim_rng, cfg.model.z.p, cfg.horizon)
        speaks = sim._slots_where(success)
    else:
        success, speaks = None, sim._speak_slots(cfg.model, tim_rng, cfg.horizon)
    values = cfg.model.v.values
    arrivals = [values[d] for d in digits.tolist()]

    def select(t, l):
        s = policy(arrivals[t - l : t])
        return s - 1, s

    return loop_run(cfg, values, digits, speaks, select, policy.max_buffer, success)
