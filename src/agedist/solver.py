"""Average-cost policy iteration over the truncated buffer MDP.

Two solver routes are provided.  The efficient route exploits the chain
structure of improving policies: every state either sends its oldest packet
(the B1 set) or inherits its parent's choice, so relative values obey
``h(b) = b1/mu + h(parent(b))`` and policy evaluation reduces to a linear
system over B1 alone.  The system is assembled from the B1 states by suffix
corrections: a next state shares the system state of the one without its
oldest entry unless it is in B1, so each row is the all-fresh distribution
plus one term per B1 state whose prefix ends the row's parent, and no trie
block is read.  The generic route is textbook policy iteration with
a dense full-state linear solve and an exhaustive argmin; it exists as the
correctness oracle for the efficient route and is only tractable for small
depths.

Cost convention: the average cost per speaking instant is
``lambda = d + eta * delta_e`` where ``d`` is distortion per time slot and
``delta_e`` is expected excess age per speaking instant.  The evaluation
system is linear in the one-step cost, so every evaluation factors it once
and solves for the age and the distortion parts of the cost as two
right-hand sides: their average costs are ``delta_e`` and ``d``, and lambda
and h are the eta-weighted sums.

A solve carries its policy as B1, (level, index) arrays, and builds the
action table once, at the end, in ``np.min_scalar_type(K)`` (uint8 up to
K = 255).  It holds no per-node buffer and builds no h level: the parts of
C_h(b, 1) follow the chain identity a trie level at a time, and one sweep
(``_sweep``) computes them, and the improvement's values, only at the nodes
that can send their oldest packet, the prefixes of B1 and the B1 parents
the residual gate reads; every other node provably chains.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .model import Model, check_eta, is_number, numbers
from .statetree import StateTree, buffer_digits, buffer_entries, buffer_index

TIE_TOL = 1e-12
PRUNE_TOL = 1e-9  # relative margin of the improvement's pruning: rounding along K levels is about 1e-14 of it
RESIDUAL_TOL = 1e-9
MAX_ITERS = 1000
B1_CAP = 8192  # reduced-system states: the dense solve holds a few 537 MB arrays at the cap
CHECK_BLOCK = 1 << 16  # table entries per comparison of the chain check
CORRECTION_CAP = 1 << 25  # suffix corrections of one assembly: about 104 bytes each, 3.5 GB, at its peak

POLICY_FORMAT = "agedist-policy-v1"
POLICY_FIELDS = ("model_hash", "eta", "K", "lambda", "delta_e", "d", "values", "actions")


# ---------------------------------------------------------------------------
# one-step and full C-values
# ---------------------------------------------------------------------------


def one_step_cost(model: Model, eta: float, state, s: int) -> float:
    """(1/mu) * sum of skipped importances + eta * (l - s)."""
    l = len(state)
    if not (1 <= s <= l):
        raise ValueError(f"action {s} infeasible for buffer length {l}")
    return sum(state[: s - 1]) / model.mu + eta * (l - s)


def _forgetting_terms(model: Model, tree: StateTree, digits, l: int, s: int) -> float:
    """Distortion charged to packets that fall off the K-window unsent."""
    K = tree.K
    mu = model.mu
    tot = model.mean_importance / mu * model.z_excess_mean(K)
    for k in range(s + 1, l + 1):
        tot += tree.values[digits[k - 1]] / mu * model.z_tail(K + k - l)
    return tot


def _transition_blocks(model: Model, tree: StateTree, l: int, i: int, s: int):
    """Probability-weighted h-expectation blocks reached from (state, action).

    Yields ``(weight, level, start, k)``: the next state lies in the level
    slice ``[start, start + m**k)`` with block weights ``weight * wprob[k]``.
    The final element carries the lumped tail Pr(Z >= K) into the all-fresh
    level-K block; interspeak times that empty the leftover exactly are kept
    out of it to avoid double counting.
    """
    K, m = tree.K, tree.m
    lm = l - s
    suf = i % (m**lm)
    for k in range(1, min(K - lm, K - 1) + 1):
        yield model.z_pmf(k), lm + k, suf * m**k, k
    for k in range(K - lm + 1, K):
        keep = K - k
        yield model.z_pmf(k), K, (i % (m**keep)) * m**k, k
    yield model.z_tail(K), K, 0, K


def _c_value_node(
    model: Model, tree: StateTree, h_levels, l: int, i: int, s: int, eta: float
) -> float:
    digits = buffer_digits(l, i, tree.m)
    val = eta * (l - s)
    val += sum(tree.values[d] for d in digits[: s - 1]) / model.mu
    val += _forgetting_terms(model, tree, digits, l, s)
    for w, level, start, k in _transition_blocks(model, tree, l, i, s):
        if w == 0.0:
            continue
        block = h_levels[level][start : start + tree.m**k]
        val += w * float(block @ tree.wprob[k])
    return val


def c_value(model: Model, tree: StateTree, h_levels, state, s: int, eta: float) -> float:
    """Expected one-step-plus-continuation cost C_h(b, s) on the truncated tree."""
    l, i = tree.locate(state)
    if not (1 <= s <= l):
        raise ValueError(f"action {s} infeasible for buffer length {l}")
    return _c_value_node(model, tree, h_levels, l, i, s, eta)


# ---------------------------------------------------------------------------
# C_h(b, 1) and the improvement: the chain identity at the candidate nodes
# ---------------------------------------------------------------------------


class _Solve:
    """The constants every evaluation of one (model, K, eta) solve shares: gap law, v/mu, m**k, pruning bounds."""

    def __init__(self, model: Model, tree: StateTree, eta: float):
        K, m, reach, mu = tree.K, tree.m, model.reach_bounds(eta), model.mu
        self.model, self.tree, self.eta, self.offset = model, tree, eta, np.asarray(tree.level_offset)
        self.law = tuple(np.array([0.0] + [f(k) for k in range(1, K + 1)]) for f in (model.z_pmf, model.z_tail))
        self.b1mu, self.ev, self.pw = tree.values / mu, model.mean_importance / mu, m ** np.arange(K)
        self.forget = self.ev * model.z_excess_mean(K)  # the root's charge for the packets that fall off
        self.span = K * (self.b1mu.max() + eta)  # the most K levels add to a value along nodes off the candidates
        self.sends = [[d for d, r in enumerate(reach.tolist()) if r > j] for j in range(K)]  # level j + 1 may send d
        self.top = np.where(reach >= np.arange(K + 2)[:, None], self.b1mu, -math.inf).max(axis=1) - TIE_TOL


def _pairs(sv: _Solve, lev: np.ndarray, idx: np.ndarray):
    """What an evaluation reads of its states ``(lev, idx)`` (level-major, ascending), for every level at once.

    Returns ``(par, digits, whole, pairs, subs)``: the parents ``y[2:]`` as level indices, the digits newest
    first, pi(y).  ``pairs = (y, j, pre, w, cut)`` lists each (state y, 1 <= j < |y|), level j at ``cut[j -
    1]:cut[j]`` with the states in order: the prefix y[:j] as a level-j index and ``w = Pr(Z = |y| - j)
    pi(y[j+1:])``.  ``subs = (keys, bounds)``: the length-j substrings x of longer states, sorted, at
    ``keys[bounds[j - 1]:bounds[j]]`` as ``level_offset[j] + x``, the one node key of the solver."""
    K, pw, n = sv.tree.K, sv.pw, len(idx)
    digits = idx[:, None] // pw % sv.tree.m
    pi = np.cumprod(sv.tree.probs[digits], axis=1)  # pi[y, t - 1]: the newest t digits of y
    cnt = n - np.searchsorted(lev, np.arange(1, K), "right")  # the states longer than j = 1..K-1, a tail of them
    y, j = _ranges(cnt) + np.repeat(n - cnt, cnt), np.repeat(np.arange(1, K), cnt)
    z = lev[y] - j
    pairs = y, j, idx[y] // pw[z], sv.law[0][z] * pi[y, z - 1], np.searchsorted(j, np.arange(1, K + 1))
    js, t = np.repeat(j, z + 1), _ranges(z + 1)  # each pair's length-j windows
    subs = np.sort(sv.offset[js] + idx[np.repeat(y, z + 1)] // pw[t] % pw[js])
    return idx % pw[lev - 1], digits, pi[np.arange(n), lev - 1], pairs, (subs, subs.searchsorted(sv.offset[1:-1]))


def _sweep(sv: _Solve, lev, idx, ev, D, s1: float, lam: float):
    """The parts of C_h(b, 1) and one improvement sweep, at the candidate nodes only.

    Returns ``(keys, parts, (lev, idx))``: ``parts[k]`` is the part of the level-j node x at
    ``keys[k] = level_offset[j] + x`` (ascending), so ``C_h(b, 1) = eta * (l - 1) + part(parent b)``,
    and the new B1 is level-major with ascending indices.  The part of x is kappa(x) + sum_z p_z
    E[h(x || V^z)], kappa the forgetting charge.  h is given by ``s1`` = E[h_1] and ``D(y) = h(y) -
    y_1/mu - h(parent y)`` at the states ``(lev, idx)`` (level-major, ascending; ``ev`` their
    ``_pairs``) where it may not be zero, B1 for a chain h.  Sending x's oldest packet costs x_1/mu with
    probability 1, through h when the arrivals fit and as the forgetting charge when they push it
    off; the rest is as from x[2:]: ``part(x) = x_1/mu + part(x[2:]) + sigma(x)``, ``sigma(x) =
    sum_{y[:j] = x} p_{|y| - j} pi(y[j+1:]) D(y)`` in state order.  The root is Pr(Z >= K) S_K +
    E[V]/mu E[(Z - K)^+] + sum_{z < K} p_z S_z, S_z = S_{z-1} + E[V]/mu + sum_{|y| = z} pi(y) D(y).

    A state (d, x) sends its oldest packet when the reach bound of d permits it and
    ``c1(x) < (best(x) + v_d/mu) - TIE_TOL``, best the C-value of x's own action: ties stay with the
    freshest feasible packet.  With ``delta(x) = c1(x) - best(x)`` the identity gives ``delta(d, x)
    >= delta(x) + eta + sigma(d, x)`` (a take at x only raises it), and sigma is zero off the proper
    prefixes of the states.  So a node off them cannot take once its parent's delta + eta clears the
    level's largest sendable v/mu - TIE_TOL by ``PRUNE_TOL`` of the magnitudes involved, and nor can
    any node below it.  A level's candidates are the children of the last level's candidates within
    that margin and the level's substrings of the states, which hold their prefixes, their parents
    ``y[2:]`` (the residual gate reads those) and the parents of both; every take and every value is
    bitwise the whole-level sweep's.  Only the recursion from parent to child loops over the levels.
    """
    K, m, (pmf, tail), b1mu, eta = sv.tree.K, sv.tree.m, sv.law, sv.b1mu, sv.eta
    _, _, whole, (y, _, pre, w, cut), (subs, bounds) = ev
    inc = np.bincount(lev, weights=whole * D, minlength=K + 1)
    S = list(itertools.accumulate(inc[2:], lambda s, i: s + sv.ev + i, initial=s1))  # S_1..S_K
    root = tail[K] * S[-1] + sv.forget + np.dot(pmf[1:K], S[:-1])
    sigma = w * D[y]  # the corrections, level-major with the states in order within a level
    xs, parts, found = [np.zeros(1, dtype=np.int64)], [np.array([root])], [(1, np.zeros(0, dtype=np.int64))]
    kids, best = np.arange(m), np.full((m, 1), lam)  # best: C_h(b, s(b)) of the children of the last level
    heads, col = kids[:, None], b1mu[:, None]
    for j in range(1, K):
        x = np.concatenate(([-1], subs[bounds[j - 1] : bounds[j]] - sv.offset[j], kids))  # -1 sorts first, is dropped
        x.sort()
        x = x[1:][x[1:] != x[:-1]]  # distinct: np.unique would import numpy.ma, 1.7 MB, on its first call
        digit, low = np.divmod(x, sv.pw[j - 1])
        par = xs[-1].searchsorted(low)
        part = parts[-1][par] + b1mu[digit]
        np.add.at(part, x.searchsorted(pre[cut[j - 1] : cut[j]]), sigma[cut[j - 1] : cut[j]])
        xs.append(x)
        parts.append(part)
        c1, best = part + eta * j, best[digit, par]
        rows = best + col
        for d in sv.sends[j]:
            take = c1 < rows[d] - TIE_TOL
            found.append((j + 1, x[take] + d * sv.pw[j]))
            np.copyto(rows[d], c1, where=take)
        near = c1 - best + eta < sv.top[j + 2] + PRUNE_TOL * (1.0 + np.abs(c1) + np.abs(best) + sv.span)
        kids, best = (heads * sv.pw[j] + x[near]).ravel(), rows
    keys = np.concatenate(xs) + np.repeat(sv.offset[:K], [len(x) for x in xs])
    lev = np.repeat([l for l, _ in found], [len(i) for _, i in found])
    return keys, np.concatenate(parts), (lev, np.concatenate([i for _, i in found]))


# ---------------------------------------------------------------------------
# chain policies: the action table and its B1 states
# ---------------------------------------------------------------------------


def _chain_actions(tree: StateTree, takes) -> list[np.ndarray]:
    """Chain-form action table from the states of each level that send their oldest packet.

    A state of level ``l`` sends its oldest packet (action 1) where
    ``takes[l]``, a flat mask, index array or slice, selects it, and
    otherwise takes its parent's action plus one; levels past the end of
    ``takes``, or whose entry is None, chain throughout, so no masks gives
    send-latest.  Level 0 holds the root's placeholder action 0, which makes
    every level-1 action 1.  Actions are stored in ``np.min_scalar_type(K)``,
    uint8 up to K = 255.
    """
    dtype = np.min_scalar_type(tree.K)
    actions = [np.zeros(1, dtype=dtype)]
    for l in range(1, tree.K + 1):
        acts = np.empty(tree.level_size[l], dtype=dtype)
        np.add(actions[l - 1], 1, out=acts.reshape(tree.m, -1))
        if l < len(takes) and takes[l] is not None:
            acts[takes[l]] = 1
        actions.append(acts)
    return actions


def check_chain_table(tree: StateTree, actions) -> None:
    """Raise a ValueError unless ``actions`` is a chain policy on ``tree``.

    The table holds levels 0..K, level ``l`` its ``m**l`` integer actions.
    The root holds the placeholder 0, length-1 states take action 1, and
    every longer state sends its oldest packet or takes its parent's action
    plus one; anything else cannot be represented by the reduced system, and
    a checked table narrows to ``np.min_scalar_type(K)`` without wrapping.
    Each level is checked in blocks of about ``CHECK_BLOCK`` entries, whole
    oldest digits at a time while they fit, in state order: a small level is
    one comparison and no temporary spans a big one.
    """
    if len(actions) != tree.K + 1:
        raise ValueError(f"action table has {len(actions)} levels, expected {tree.K + 1} (levels 0..{tree.K})")
    for l, acts in enumerate(actions):
        acts = np.asarray(acts)
        if acts.shape != (tree.level_size[l],):
            raise ValueError(f"action table level {l} has shape {acts.shape}, expected ({tree.level_size[l]},)")
        if acts.dtype.kind not in "iu":
            raise ValueError(f"action table level {l} has dtype {acts.dtype}, expected integers")
    if np.asarray(actions[0])[0] != 0:
        raise ValueError("action table level 0: the root must hold the placeholder action 0")
    if not np.all(np.asarray(actions[1]) == 1):
        raise ValueError("action table level 1: length-1 states must take action 1")
    for l in range(2, tree.K + 1):
        prev, n = np.asarray(actions[l - 1]), tree.level_size[l - 1]
        view, rows, cols = np.reshape(actions[l], (tree.m, n)), max(1, CHECK_BLOCK // n), min(n, CHECK_BLOCK)
        for digit, lo in itertools.product(range(0, tree.m, rows), range(0, n, cols)):
            block = view[digit : digit + rows, lo : lo + cols]
            ok = block == prev[lo : lo + cols] + 1
            ok |= block == 1
            if not ok.all():
                r, c = divmod(int(np.argmin(ok)), ok.shape[1])
                bad = tree.entries_of(l, (digit + r) * n + lo + c)
                raise ValueError(f"action table level {l} is not chain-structured at state {bad}")


def _narrow(tree: StateTree, actions, copy: bool = True) -> list[np.ndarray]:
    """A checked chain table in ``np.min_scalar_type(K)``, the stored type; ``copy=False`` copies only to narrow."""
    return [np.asarray(acts).astype(np.min_scalar_type(tree.K), copy=copy) for acts in actions]


def _b1_list(tree: StateTree, actions) -> tuple[np.ndarray, np.ndarray]:
    """B1 of a checked chain policy, the states of length >= 2 that send their oldest packet.

    Returned as int64 arrays ``(lev, idx)``, level by level with ascending indices.
    """
    check_chain_table(tree, actions)
    idx = [np.zeros(0, dtype=np.int64)]  # level 1 holds no B1 state
    idx += [np.flatnonzero(np.asarray(actions[l]) == 1) for l in range(2, tree.K + 1)]
    lev = np.repeat(np.arange(1, tree.K + 1), [len(i) for i in idx])
    return lev, np.concatenate(idx)


def _b1_actions(tree: StateTree, lev: np.ndarray, idx: np.ndarray) -> list[np.ndarray]:
    """The chain action table whose B1 is ``(lev, idx)``, level-major with ascending indices."""
    return _chain_actions(tree, np.split(idx, np.searchsorted(lev, np.arange(tree.K), "right")))


# ---------------------------------------------------------------------------
# chain-policy evaluation: linear system over B1
# ---------------------------------------------------------------------------


def _ranges(counts: np.ndarray) -> np.ndarray:
    """``0..c-1`` for each count ``c``, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def _assemble(sv: _Solve, lev: np.ndarray, idx: np.ndarray, ev):
    """The reduced system over the singletons and B1: (P, [age, distortion] cost, (sys_par, edges)).

    Relies on the chain identity: every node outside B1 has the value
    ``b1/mu + h(parent)``, so its value is its accumulated edge cost plus the
    value of its nearest B1 ancestor (zero if that ancestor is a singleton).
    Row 0 of the system stands for all singletons and row r for B1 state
    y_r = (lev[r - 1], idx[r - 1]).  With ``sys(x)`` that row for node x,
    ``delta(y) = e_sys(y) - e_sys(parent y)`` and pi the probability of a
    digit string, ``sys(x || w) = sys(x[1:] || w)`` unless ``x || w`` is in
    B1.  So the next state of a row, which sends its oldest packet and so
    depends only on its parent ``a``, unrolls by suffix corrections into

        P[r] = e_0 + sum_y Pr(Z >= |y|) pi(y) delta(y)
                   + sum_{j = 1..|a|} sum_{y : y[:j] = a[-j:]} Pr(Z = |y| - j) pi(y[j:]) delta(y)

    over the B1 states y: the interior and level-K blocks of
    ``_transition_blocks`` fold into one weight per prefix length.  The edge
    cost takes the same sums with ``-(y_1/mu + cost[parent y])`` for
    ``delta(y)``, where ``cost`` is the edge cost accumulated from a node up
    to its nearest B1 ancestor, plus sum(a)/mu for the entries the row forgets
    or keeps and E[V]/mu (E[Z] - 1) for the all-fresh ones.  No trie block is
    read: the pairs and their weights come from ``_pairs`` (``ev``).
    ``sys_par[y]``, found by one search over every suffix length, is the row
    of y's nearest B1 ancestor, ``edges[y, t]`` the edge cost of y's newest
    digit t out to y.  A table with over ``CORRECTION_CAP`` suffix corrections
    is rejected before they are matched.
    """
    K, n, mu, (pmf, tail), pw = sv.tree.K, len(idx) + 1, sv.model.mu, sv.law, sv.pw
    par, digits, whole, (y, j, pre, w, _), _ = ev
    # the row of y's parent is that of its longest proper suffix in B1, the deepest hit (none: row 0)
    keys, q = sv.offset[lev] + idx, np.arange(2, K)
    key = sv.offset[q] + par[:, None] % pw[q]
    row = np.searchsorted(keys, key)
    hit = (q < lev[:, None]) & (keys[np.minimum(row, n - 2)] == key)
    sys_par = np.max(np.where(hit, row + 1, 0), axis=1, initial=0)  # a deeper suffix sorts later
    anchor = np.concatenate(([1], lev))[sys_par]
    # y_1/mu + cost[parent y]: the edge costs b1/mu, added one at a time from the anchor out to y
    t = np.arange(K)
    edges = np.where((anchor[:, None] <= t) & (t < lev[:, None]), sv.b1mu[digits], 0.0)
    c_hat = np.cumsum(edges, axis=1)[:, -1]

    def scatter(out, rows, y, w):
        """Add ``w * delta(y)`` to ``rows`` of ``out``; column n is the edge cost."""
        at = np.concatenate([y + 1, sys_par[y], np.full(len(y), n)]) + np.tile(rows * (n + 1), 3)
        np.add.at(out, at, np.concatenate([w, -w, -w * c_hat[y]]))

    gamma = np.eye(1, n + 1).ravel()
    scatter(gamma, np.zeros(n - 1, dtype=np.int64), np.arange(n - 1), tail[lev] * whole)
    # every (B1 state y, 1 <= j < |y|): prefix y[:j] and the length-j suffix of row y's parent
    prefix = sv.offset[j] + pre
    order = np.argsort(prefix, kind="stable")
    prefix = prefix[order]
    suffix = sv.offset[j] + par[y] % pw[j]
    lo = np.searchsorted(prefix, suffix, "left")
    hits = np.searchsorted(prefix, suffix, "right") - lo
    count = int(hits.sum())
    if count > CORRECTION_CAP:
        raise ValueError(
            f"action table with |B1|={n - 1} states has {count} suffix corrections, over the cap of {CORRECTION_CAP}"
        )
    match = order[np.repeat(lo, hits) + _ranges(hits)]
    aug = np.tile(gamma, (n, 1))
    scatter(aug.reshape(-1), np.repeat(y + 1, hits), y[match], w[match])
    asum = np.where(t < (lev - 1)[:, None], sv.tree.values[digits], 0.0).sum(axis=1)
    cost = np.zeros((n, 2))  # [age, distortion] one-step costs
    cost[1:, 0] = lev - 1
    cost[:, 1] = aug[:, n] + sv.model.mean_importance / mu * (mu - 1.0)
    cost[1:, 1] += asum / mu
    return aug[:, :n], cost, (sys_par, edges)


def _evaluate(sv: _Solve, lev, idx):
    """Evaluate the chain policy with B1 ``(lev, idx)``, gated on the residuals of its parts of C_h(b, 1).

    Returns (lambda, delta_e, d, u, sweep), u as ``_assemble`` orders the states and sweep the
    ``_sweep`` of u: the parts at its candidates and the improved B1.  A table with more than
    ``B1_CAP`` B1 states is rejected before anything is allocated.
    """
    if len(idx) > B1_CAP:
        raise ValueError(f"action table has |B1|={len(idx)} states, over the cap of {B1_CAP}")
    eta, ev = sv.eta, _pairs(sv, lev, idx)
    P, cost, (sys_par, edges) = _assemble(sv, lev, idx, ev)
    lam, delta_e, d, u = age_distortion_solve(P, cost, eta)
    # h(y) - y_1/mu - h(parent y), the chain value added up from the anchor as evaluate_policy builds h
    chained = np.cumsum(np.column_stack([u[sys_par], edges]), axis=1)[:, -1]
    sweep = keys, parts, _ = _sweep(sv, lev, idx, ev, u[1:] - chained, 0.0, lam)
    # worst residual of the root and B1 equations, where h is u
    c1 = eta * (lev - 1) + parts[np.searchsorted(keys, sv.offset[lev - 1] + ev[0])]
    worst = float(np.max(np.abs(u[1:] + lam - c1), initial=abs(lam - float(parts[0]))))
    if not worst <= RESIDUAL_TOL:
        raise RuntimeError(f"policy evaluation residual {worst:.3e} exceeds {RESIDUAL_TOL} (eta={eta}, K={sv.tree.K})")
    return lam, delta_e, d, u, sweep


def evaluate_policy(model: Model, tree: StateTree, actions, eta: float):
    """Evaluate a chain-structured stationary policy; returns (lambda, h).

    ``actions`` is a per-level list of action arrays (levels 0..K).  Policies
    produced by the improvement step always satisfy s(b) in {1, s(parent)+1};
    anything else is rejected with a ValueError naming the level.  The table
    is recorded as ``tree.last_actions`` for ``evaluate_components``.
    """
    lev, idx = _b1_list(tree, actions)
    lam, _, _, u, _ = _evaluate(_Solve(model, tree, eta), lev, idx)
    tree.last_actions = _narrow(tree, actions)
    b1mu, h = (tree.values / model.mu)[:, None], [np.zeros(1), np.zeros(tree.m)]
    for l in range(2, tree.K + 1):  # the chain identity outside B1
        h.append(np.add(h[-1], b1mu).ravel())
        h[l][idx[lev == l]] = u[1:][lev == l]
    return lam, h


def evaluate_components(model: Model, tree: StateTree, actions=None):
    """(delta_e, d) of the given policy (default ``tree.last_actions``).

    Runs the same gated evaluation as every solve, at eta = 1: its age and
    distortion parts do not depend on eta, so the result is bitwise the one
    ``policy_iteration`` reports for the same table.
    """
    if actions is None:
        actions = tree.last_actions
        if actions is None:
            raise ValueError("no action table given and none recorded on the tree")
    _, delta_e, d, _, _ = _evaluate(_Solve(model, tree, 1.0), *_b1_list(tree, actions))
    return delta_e, d


# ---------------------------------------------------------------------------
# policy improvement
# ---------------------------------------------------------------------------


def _h_parts(model: Model, tree: StateTree, h_levels, lam: float, eta: float):
    """``_sweep`` of h levels, from their departures ``h_l - (h_{l-1} + b1/mu)`` one oldest digit at a time."""
    b1mu, found = tree.values / model.mu, [(np.zeros(0, dtype=np.int64),) * 2 + (np.zeros(0),)]
    for l in range(2, tree.K + 1):
        n = tree.level_size[l - 1]
        for d, row in enumerate(h_levels[l].reshape(tree.m, n)):
            D = row - (h_levels[l - 1] + b1mu[d])
            at = np.flatnonzero(D)
            found.append((np.full(len(at), l), at + d * n, D[at]))
    lev, idx, D = (np.concatenate(a) for a in zip(*found))
    sv = _Solve(model, tree, eta)
    return _sweep(sv, lev, idx, _pairs(sv, lev, idx), D, float(h_levels[1] @ tree.probs), lam)


def policy_improve(model: Model, tree: StateTree, h_levels, lam: float, eta: float):
    """Public improvement step: (per-level actions, B1 as ``(lev, idx)``); the table is also ``tree.last_actions``."""
    lev, idx = _h_parts(model, tree, h_levels, lam, eta)[2]
    actions = _b1_actions(tree, lev, idx)
    tree.last_actions = [a.copy() for a in actions]
    return actions, (lev, idx)


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass
class PolicySolution:
    """A converged policy: its action table, which ``evaluate_policy`` rebuilds h from, and costs."""

    eta: float
    K: int
    lam: float
    delta_e: float
    d: float
    iters: int
    values: tuple[float, ...]
    actions: list[np.ndarray]
    model_hash: str = ""

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def b1_size(self) -> int:
        return sum(int(np.count_nonzero(acts == 1)) for acts in self.actions[2:])

    @property
    def max_buffer(self) -> int:
        return self.K

    def action_for(self, entries) -> int:
        if not 1 <= len(entries) <= self.K:
            raise ValueError(f"buffer length {len(entries)} outside 1..{self.K}")
        l, i = buffer_index(self.values, entries)
        return int(self.actions[l][i])

    def __call__(self, entries) -> int:
        return self.action_for(entries)

    def b1_states(self):
        """The states of length >= 2 that send their oldest packet, level by level."""
        return (
            buffer_entries(self.values, l, i)
            for l in range(2, self.K + 1)
            for i in np.flatnonzero(self.actions[l] == 1).tolist()
        )

    def to_json(self, path: str) -> None:
        doc = {
            "format": POLICY_FORMAT,
            "model_hash": self.model_hash,
            "eta": self.eta,
            "K": self.K,
            "lambda": self.lam,
            "delta_e": self.delta_e,
            "d": self.d,
            "values": list(self.values),
            "actions": [_rle_encode(self.actions[l]) for l in range(self.K + 1)],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    @classmethod
    def from_json(cls, path: str, model: Model) -> "PolicySolution":
        """Load a policy file solved for ``model``; a corrupt table fails here."""
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        fmt = doc.get("format") if isinstance(doc, dict) else None
        if fmt != POLICY_FORMAT:
            raise ValueError(f"unsupported policy file format {fmt!r}")
        missing = [key for key in POLICY_FIELDS if key not in doc]
        if missing:
            raise ValueError(f"policy file has no {', '.join(missing)} field")
        for key in ("eta", "lambda", "delta_e", "d"):
            if not is_number(doc[key]):
                raise ValueError(f"non-numeric {key} in policy file: {doc[key]!r}")
        eta, lam, delta_e, d = (float(doc[key]) for key in ("eta", "lambda", "delta_e", "d"))
        check_eta(eta)
        if not all(map(math.isfinite, (lam, delta_e, d))):
            got = f"lambda={lam}, delta_e={delta_e}, d={d}"
            raise ValueError(f"policy file numbers must be finite, got {got}")
        if doc["model_hash"] != model.config_hash():
            raise ValueError("policy file was solved for a different model")
        values = numbers("policy file values", doc["values"])
        if values != tuple(model.v.values):
            raise ValueError(f"policy file values {values} differ from the model's")
        tree = StateTree(model, doc["K"])
        rles = doc["actions"]
        if not (isinstance(rles, list) and all(isinstance(rle, list) for rle in rles)):
            raise ValueError("policy file actions must be a list of run-length lists")
        if len(rles) != tree.K + 1:
            raise ValueError(f"action table has {len(rles)} levels, expected {tree.K + 1} (levels 0..{tree.K})")
        actions = [_rle_decode(rle, l, n, tree.K) for l, (rle, n) in enumerate(zip(rles, tree.level_size))]
        check_chain_table(tree, actions)
        return cls(
            eta=eta,
            K=tree.K,
            lam=lam,
            delta_e=delta_e,
            d=d,
            iters=0,
            values=values,
            actions=_narrow(tree, actions, copy=False),  # a copy only where K + 1 needs a wider type than K
            model_hash=doc["model_hash"],
        )


def _rle_encode(arr) -> list[list[int]]:
    """One level's [value, count] runs; a run starts wherever the action changes."""
    arr = np.ravel(arr)
    starts = np.concatenate(([0], np.flatnonzero(arr[1:] != arr[:-1]) + 1))[: len(arr)]
    counts = np.diff(starts, append=len(arr))
    return [list(pair) for pair in zip(arr[starts].tolist(), counts.tolist())]


def _rle_decode(rle, level: int, size: int, K: int) -> np.ndarray:
    """Expand one level's run-length pairs, their counts checked first, into ``np.min_scalar_type(K + 1)``: a run
    value outside 0..K becomes K + 1, which the chain check rejects at the same state."""
    try:
        pairs = [(value, count) for value, count in rle]
    except (TypeError, ValueError):
        raise ValueError("policy file actions must be a list of run-length lists") from None
    bad = next((pair for pair in pairs if not all(is_number(x, int) for x in pair)), None)
    if bad is not None:
        raise ValueError(f"action table level {level} has a non-integer run-length pair {list(bad)}")
    counts = [count for _, count in pairs]
    if any(count < 1 for count in counts):
        raise ValueError(f"action table level {level} has a run-length count below 1")
    if sum(counts) != size:
        raise ValueError(f"action table level {level} has shape ({sum(counts)},), expected ({size},)")
    try:
        values = np.array([value for value, _ in pairs], dtype=np.int32)
    except OverflowError:
        raise ValueError(f"action table level {level} has an action outside int32") from None
    return np.repeat(np.where((values < 0) | (values > K), K + 1, values).astype(np.min_scalar_type(K + 1)), counts)


# ---------------------------------------------------------------------------
# efficient policy iteration
# ---------------------------------------------------------------------------


def policy_iteration(
    model: Model,
    eta: float,
    K: int | None = None,
    *,
    start: PolicySolution | None = None,
) -> PolicySolution:
    """Efficient policy iteration; returns the converged PolicySolution.

    Starts from send-latest, or from ``start`` (a converged policy of depth
    at most K, as in a warm-started eta sweep) with its deeper levels chaining
    to their parents, and alternates the reduced evaluation with the chain
    improvement until the action table is a fixed point.  B1 is read off the
    start's table as it is, so a table off the chain rule raises a ValueError.
    """
    check_eta(eta)
    if K is None:
        K = model.buffer_bound(eta)
    lev = idx = np.zeros(0, dtype=np.int64)  # send-latest: no B1 state
    if start is not None:
        if start.K > K:
            raise ValueError(f"start policy depth {start.K} exceeds K={K}")
        if start.values != tuple(model.v.values):
            raise ValueError(f"start policy values {start.values} differ from the model's")
        lev, idx = _b1_list(StateTree(model, start.K), start.actions)  # its deeper levels chain
    tree = StateTree(model, K)
    sv = _Solve(model, tree, eta)
    for it in range(1, MAX_ITERS + 1):
        lam, delta_e, d, _, (_, _, (new_lev, new_idx)) = _evaluate(sv, lev, idx)
        if np.array_equal(new_lev, lev) and np.array_equal(new_idx, idx):
            iters = it
            break
        lev, idx = new_lev, new_idx
    else:
        raise RuntimeError(
            f"policy iteration did not converge within {MAX_ITERS} iterations "
            f"(eta={eta}, K={K}, lambda={lam})"
        )
    actions = _b1_actions(tree, lev, idx)
    return PolicySolution(eta, K, lam, delta_e, d, iters, tuple(model.v.values), actions, model.config_hash())


# ---------------------------------------------------------------------------
# generic policy iteration (oracle route)
# ---------------------------------------------------------------------------


def average_cost_solve(P: np.ndarray, cost: np.ndarray):
    """Dense average-cost evaluation of a unichain policy: returns (lambda, h).

    Solves ``h + lambda = cost + P h`` over every state with ``h[0] = 0``;
    the column of the pinned unknown carries lambda instead.  ``cost`` may be
    a matrix with one column per one-step cost, all solved from one
    factorization; lambda is then a row.  A singular system (the policy has
    more than one recurrent class) raises.
    """
    A = np.subtract(0.0, P)  # I - P with one n x n array, bit for bit
    np.fill_diagonal(A, A.diagonal() + 1.0)
    A[:, 0] = 1.0
    try:
        u = np.linalg.solve(A, cost)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError(
            f"singular average-cost system over {len(cost)} states; the policy is not unichain"
        ) from exc
    lam = u[0].copy()
    u[0] = 0.0
    return lam, u


def age_distortion_solve(P: np.ndarray, cost: np.ndarray, eta: float):
    """``average_cost_solve`` of an [age, distortion] cost pair; returns (lambda, delta_e, d, h).

    The one-step cost is ``eta * age + distortion`` and the evaluation is
    linear in it, so one factorization gives both components and the
    weighted cost.
    """
    lam, u = average_cost_solve(P, cost)
    delta_e, d = lam.tolist()
    return d + eta * delta_e, delta_e, d, u[:, 1] + eta * u[:, 0]


def _evaluate_full(model: Model, tree: StateTree, actions, eta: float):
    """Dense evaluation over every state, h([v_min]) = 0; returns (lambda, delta_e, d, h)."""
    n = tree.node_count() - 1  # every state but the root, in breadth-first order
    P = np.zeros((n, n))
    cost = np.zeros((n, 2))  # [age, distortion] one-step costs
    for l in range(1, tree.K + 1):
        for i in range(tree.level_size[l]):
            r = tree.level_offset[l] + i - 1
            s = int(actions[l][i])
            digits = buffer_digits(l, i, tree.m)
            cost[r, 0] = l - s
            cost[r, 1] = sum(tree.values[d] for d in digits[: s - 1]) / model.mu
            cost[r, 1] += _forgetting_terms(model, tree, digits, l, s)
            for w, level, start, k in _transition_blocks(model, tree, l, i, s):
                cols = tree.level_offset[level] + start - 1 + np.arange(tree.m**k)
                P[r, cols] += w * tree.wprob[k]
    lam, delta_e, d, u = age_distortion_solve(P, cost, eta)
    off = tree.level_offset
    h_levels = [np.zeros(1)] + [u[off[l] - 1 : off[l + 1] - 1] for l in range(1, tree.K + 1)]
    return lam, delta_e, d, h_levels


def generic_policy_iteration(model: Model, eta: float, K: int) -> PolicySolution:
    """Textbook policy iteration with exhaustive argmin; the oracle route."""
    check_eta(eta)
    tree = StateTree(model, K)
    actions = _chain_actions(tree, ())  # send-latest
    for it in range(1, MAX_ITERS + 1):
        lam, delta_e, d, h_levels = _evaluate_full(model, tree, actions, eta)
        changed = False
        for l in range(1, K + 1):
            for i in range(tree.level_size[l]):
                digits = buffer_digits(l, i, tree.m)
                best_s = l
                best_c = _c_value_node(model, tree, h_levels, l, i, l, eta)
                for s in range(l - 1, 0, -1):
                    if digits[s - 1] == 0:
                        continue  # stale minimum-importance packet: outside the class
                    cval = _c_value_node(model, tree, h_levels, l, i, s, eta)
                    if cval < best_c - TIE_TOL:
                        best_s, best_c = s, cval
                if best_s != actions[l][i]:
                    changed = True
                    actions[l][i] = best_s
        if not changed:
            iters = it
            break
    else:
        raise RuntimeError(
            f"generic policy iteration did not converge within {MAX_ITERS} iterations "
            f"(eta={eta}, K={K})"
        )
    copies = [a.copy() for a in actions]
    return PolicySolution(eta, K, lam, delta_e, d, iters, tuple(model.v.values), copies, model.config_hash())


# ---------------------------------------------------------------------------
# eta sweep and the straight-line converse
# ---------------------------------------------------------------------------


@dataclass
class CurvePoint:
    eta: float
    lam: float
    delta_e: float
    d: float
    K: int
    b1_size: int
    iters: int


@dataclass
class TradeoffCurve:
    points: list[CurvePoint] = field(default_factory=list)
    exact_until: float | None = None
    failures: list[tuple[float, str]] = field(default_factory=list)

    @property
    def converse(self) -> list[tuple[float, float]]:
        """The straight-line converse family: one (eta, lambda) line per solved point."""
        return [(p.eta, p.lam) for p in self.points]

    def min_margin(self, delta_e: float, d: float) -> float:
        """min over converse lines of d + eta*delta_e - J*(eta); >= 0 means dominated."""
        if not self.converse:
            raise ValueError("empty converse family")
        return min(d + eta * delta_e - j for eta, j in self.converse)

    def write_points_csv(self, fh) -> None:
        fh.write("eta,lambda,delta_e,d,K,b1_size,iters\n")
        for p in self.points:
            fh.write(
                f"{p.eta:.12g},{p.lam:.12g},{p.delta_e:.12g},{p.d:.12g},"
                f"{p.K},{p.b1_size},{p.iters}\n"
            )

    def write_converse_csv(self, fh) -> None:
        fh.write("eta,intercept\n")
        for eta, j in self.converse:
            fh.write(f"{eta:.12g},{j:.12g}\n")


def sweep_eta(model: Model, etas) -> TradeoffCurve:
    """Solve a decreasing eta sequence with warm starts; emit the converse family."""
    if isinstance(etas, (str, bytes, bytearray)):  # each character would be read as an eta
        raise ValueError(f"eta sequence must be a sequence of numbers, got {etas!r}")
    etas = [float(e) for e in etas]
    if not etas:
        raise ValueError("empty eta sequence")
    for eta in etas:
        check_eta(eta)
    if any(b >= a for a, b in zip(etas, etas[1:])):
        raise ValueError("eta sequence must be strictly decreasing")

    curve = TradeoffCurve()
    start: PolicySolution | None = None
    for eta in etas:
        try:
            K = model.buffer_bound(eta)
            if start is not None:
                K = max(K, start.K)
            sol = policy_iteration(model, eta, K, start=start)
        except (ValueError, RuntimeError) as exc:
            curve.failures.append((eta, str(exc)))
            continue
        start = sol
        curve.points.append(
            CurvePoint(eta, sol.lam, sol.delta_e, sol.d, sol.K, sol.b1_size, sol.iters)
        )
    if len(curve.points) >= 2:
        p, q = curve.points[-2], curve.points[-1]
        curve.exact_until = (p.lam - q.lam) / (p.eta - q.eta)
    return curve
