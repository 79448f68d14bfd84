"""Average-cost policy iteration over the truncated buffer MDP.

Two solver routes are provided.  The efficient route exploits the chain
structure of improving policies: every state either sends its oldest packet
(the B1 set) or inherits its parent's choice, so relative values obey
``h(b) = b1/mu + h(parent(b))`` and policy evaluation reduces to a linear
system over B1 alone.  The generic route is textbook policy iteration with
a dense full-state linear solve and an exhaustive argmin; it exists as the
correctness oracle for the efficient route and is only tractable for small
depths.

Cost convention: the average cost per speaking instant is
``lambda = d + eta * delta_e`` where ``d`` is distortion per time slot and
``delta_e`` is expected excess age per speaking instant.  The evaluation
system is linear in the one-step cost, so every evaluation factors it once
and solves for the age and the distortion parts of the cost as two
right-hand sides: their average costs are ``delta_e`` and ``d``, and lambda
and h are the eta-weighted sums.  The residual gate and the improvement both
read C_h(b, 1) from one kappa pass per evaluation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .model import Model, check_eta
from .statetree import StateTree

TIE_TOL = 1e-12
RESIDUAL_TOL = 1e-9
MAX_ITERS = 1000

POLICY_FORMAT = "agedist-policy-v1"


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
    digits = tree.digits_of(l, i)
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
# kappa recursion: C_h(b, 1) for every node in O(K |V|^K)
# ---------------------------------------------------------------------------


def kappa_update(model: Model, tree: StateTree, h_levels):
    """kappa arrays for levels 0..K-1 (only parents are ever queried)."""
    K = tree.K
    mu = model.mu
    kappa: list[np.ndarray] = [np.empty(0)] * K
    base = model.z_tail(K) * float(h_levels[K] @ tree.wprob[K])
    base += model.mean_importance / mu * model.z_excess_mean(K)
    kappa[0] = np.array([base])
    for l in range(1, K):
        eh = tree.level_suffix_expectation(l, K - l, h_levels).reshape(tree.m, -1)
        kap = model.z_pmf(K - l) * eh + kappa[l - 1]
        kap += model.z_tail(K - l + 1) * tree.values[:, None] / mu
        kappa[l] = kap.ravel()
    return kappa


def _c1_parts(model: Model, tree: StateTree, h_levels) -> list[np.ndarray]:
    """Per-parent parts of C_h(b, 1): ``C_h(b, 1) = eta * (l - 1) + parts[l][parent(b)]``.

    ``parts[l]``, over the level-(l-1) nodes, is sum_z p_z E[h(parent || V^z)]
    + kappa(parent) for l = 1..K (``parts[0]`` is unused).
    """
    kappa = kappa_update(model, tree, h_levels)
    parts: list[np.ndarray] = [np.empty(0)]
    for l in range(1, tree.K + 1):
        psum = kappa[l - 1].copy()
        for z in range(1, tree.K - l + 1):
            psum += model.z_pmf(z) * tree.level_suffix_expectation(l - 1, z, h_levels)
        parts.append(psum)
    return parts


# ---------------------------------------------------------------------------
# chain policies: the action table and its reduced-system bookkeeping
# ---------------------------------------------------------------------------


def _chain_actions(tree: StateTree, takes) -> list[np.ndarray]:
    """Chain-form action table from per-level "send oldest" masks.

    A state of level ``l`` sends its oldest packet (action 1) where
    ``takes[l]`` is set and otherwise takes its parent's action plus one;
    levels past the end of ``takes`` chain throughout, so no masks gives
    send-latest.  Level 0 holds the root's placeholder action 0, which makes
    every level-1 action 1.
    """
    actions = [np.zeros(1, dtype=np.int32)]
    for l in range(1, tree.K + 1):
        chain = np.tile(actions[l - 1] + 1, tree.m)
        actions.append(np.where(takes[l], 1, chain).astype(np.int32) if l < len(takes) else chain)
    return actions


class _Chain(NamedTuple):
    """Reduced-system bookkeeping of a chain policy.

    ``cost[l][i]`` is the edge cost b1/mu accumulated from the node up to its
    nearest B1 ancestor, ``po[l][i]`` that ancestor's position in ``b1`` (-1
    when the chain ends at a singleton), and ``b1`` lists the states of
    length >= 2 that send their oldest packet, level by level.
    """

    cost: list[np.ndarray]
    po: list[np.ndarray]
    b1: list[tuple[int, int]]


def _chain(model: Model, tree: StateTree, actions) -> _Chain:
    """Check that ``actions`` is a chain policy on ``tree``; derive its bookkeeping.

    Every state of length >= 2 must send its oldest packet or take its
    parent's action plus one, and length-1 states take action 1; anything
    else cannot be represented by the reduced system and is rejected.
    """
    if len(actions) != tree.K + 1:
        raise ValueError(
            f"action table has {len(actions)} levels, expected {tree.K + 1} (levels 0..{tree.K})"
        )
    for l, acts in enumerate(actions):
        if np.shape(acts) != (tree.level_size[l],):
            raise ValueError(
                f"action table level {l} has shape {np.shape(acts)}, "
                f"expected ({tree.level_size[l]},)"
            )
    if not np.all(np.asarray(actions[1]) == 1):
        raise ValueError("action table level 1: length-1 states must take action 1")
    b1mu = (tree.values / model.mu)[:, None]
    cost = [np.zeros(n) for n in tree.level_size[:2]]
    po = [np.full(n, -1, dtype=np.int64) for n in tree.level_size[:2]]
    b1: list[tuple[int, int]] = []
    for l in range(2, tree.K + 1):
        acts = np.asarray(actions[l]).reshape(tree.m, -1)
        is_b1 = acts == 1
        ok = is_b1 | (acts == np.asarray(actions[l - 1]) + 1)
        if not np.all(ok):
            bad = int(np.flatnonzero(~ok)[0])
            raise ValueError(
                f"action table level {l} is not chain-structured at state {tree.entries_of(l, bad)}"
            )
        cost.append(np.where(is_b1, 0.0, cost[l - 1] + b1mu).ravel())
        new = np.flatnonzero(is_b1)
        po.append(np.tile(po[l - 1], tree.m))
        po[l][new] = len(b1) + np.arange(len(new))
        b1.extend((l, int(j)) for j in new)
    return _Chain(cost, po, b1)


# ---------------------------------------------------------------------------
# chain-policy evaluation: linear system over B1
# ---------------------------------------------------------------------------


def _evaluate_chain(model: Model, tree: StateTree, chain: _Chain, eta: float):
    """Solve the reduced system over the singletons and B1; returns (lambda, delta_e, d, h).

    Relies on the chain identity: every node's relative value equals its
    accumulated edge cost plus the value of its nearest B1 ancestor (zero if
    that ancestor is a singleton), so state 0 of the system stands for all
    singletons and B1 entry j for state j + 1.

    Each row sends its oldest packet, so by ``_transition_blocks`` its next
    state depends only on its parent ``a``, of length ``p``: it lies in
    ``a || V^k`` at level ``p + k < K`` with probability Pr(Z = k), or in the
    level-K block ``x || V^(K - q)`` of a suffix ``x`` of ``a`` of length ``q``
    with probability Pr(Z = K - q) (Pr(Z >= K) for the empty suffix).  The
    level-K part is summed along the suffix chain once per suffix node, so
    each level-K slice is read once per assembly, not once per row reaching it.
    """
    K, m = tree.K, tree.m
    n = len(chain.b1) + 1
    levels = np.array([1] + [l for l, _ in chain.b1])
    index = np.array([0] + [i for _, i in chain.b1])
    parents = index % m ** (levels - 1)

    def expect(level: int, anchors: np.ndarray, k: int, w: float):
        """w * E over V^k of (one-hot system state, edge cost) at ``anchor || V^k``, per anchor."""
        if w == 0.0:
            return np.zeros((len(anchors), n)), np.zeros(len(anchors))
        cols = chain.po[level].reshape(-1, m**k)[anchors]  # a copy: anchors is an index array
        cols += (np.arange(len(anchors)) * n + 1)[:, None]
        wts = np.tile(tree.wprob[k], len(anchors))
        trans = np.bincount(cols.ravel(), weights=wts, minlength=len(anchors) * n).reshape(-1, n)
        trans *= w
        return trans, w * (chain.cost[level].reshape(-1, m**k)[anchors] @ tree.wprob[k])

    suffixes = []  # per length p < K: every length-p suffix of a parent, sorted
    deeper = np.empty(0, dtype=np.int64)
    for p in range(K - 1, -1, -1):
        deeper = np.unique(np.concatenate([parents[levels == p + 1], deeper % m**p]))
        suffixes.insert(0, deeper)
    P = np.zeros((n, n))
    cost = np.zeros((n, 2))  # [age, distortion] one-step costs
    cost[:, 0] = levels - 1
    for p in range(K):
        if not len(suffixes[p]):
            break  # no B1 state is longer than p
        # level-K blocks of each length-p suffix node and of all its own suffixes
        w = model.z_tail(K) if p == 0 else model.z_pmf(K - p)
        trans, edge = expect(K, suffixes[p], K - p, w)
        if p > 0:
            shorter = np.searchsorted(suffixes[p - 1], suffixes[p] % m ** (p - 1))
            trans += suffix_trans[shorter]
            edge += suffix_edge[shorter]
        suffix_trans, suffix_edge = trans, edge
        rows = np.flatnonzero(levels == p + 1)
        if not len(rows):
            continue
        own = np.searchsorted(suffixes[p], parents[rows])
        forget = _forgetting_terms(model, tree, tree.digits_of(p + 1, index[rows]), p + 1, 1)
        P[rows] = suffix_trans[own]
        cost[rows, 1] = suffix_edge[own] + forget
        for k in range(1, K - p):
            w = model.z_pmf(k)
            if w != 0.0:
                trans, edge = expect(p + k, parents[rows], k, w)
                P[rows] += trans
                cost[rows, 1] += edge
    lam, delta_e, d, u = age_distortion_solve(P, cost, eta)
    h_levels = [np.zeros(1)] + [u[chain.po[l] + 1] + chain.cost[l] for l in range(1, tree.K + 1)]
    return lam, delta_e, d, h_levels


def _check_residuals(tree: StateTree, b1, h_levels, lam: float, eta: float, parts) -> float:
    """Worst residual of the root and B1 equations, with C_h(b, 1) from the kappa route."""
    worst = abs(lam - float(parts[1][0]))
    for l, i in b1:
        c1 = eta * (l - 1) + float(parts[l][i % tree.level_size[l - 1]])
        worst = max(worst, abs(float(h_levels[l][i]) + lam - c1))
    return worst


class _Evaluation(NamedTuple):
    """A chain policy's average cost, its two components, h, B1 and the parts of C_h(b, 1)."""

    lam: float
    delta_e: float
    d: float
    h: list[np.ndarray]
    b1: list[tuple[int, int]]
    parts: list[np.ndarray]


def _evaluate(model: Model, tree: StateTree, actions, eta: float) -> _Evaluation:
    """Evaluate a chain policy, gated on the kappa-route residuals."""
    chain = _chain(model, tree, actions)
    lam, delta_e, d, h_levels = _evaluate_chain(model, tree, chain, eta)
    parts = _c1_parts(model, tree, h_levels)
    worst = _check_residuals(tree, chain.b1, h_levels, lam, eta, parts)
    if worst > RESIDUAL_TOL:
        raise RuntimeError(
            f"policy evaluation residual {worst:.3e} exceeds {RESIDUAL_TOL} (eta={eta}, K={tree.K})"
        )
    return _Evaluation(lam, delta_e, d, h_levels, chain.b1, parts)


def evaluate_policy(model: Model, tree: StateTree, actions, eta: float):
    """Evaluate a chain-structured stationary policy; returns (lambda, h).

    ``actions`` is a per-level list of action arrays (levels 0..K).  Policies
    produced by the improvement step always satisfy s(b) in {1, s(parent)+1};
    anything else is rejected with a ValueError naming the level.  The table
    is recorded as ``tree.last_actions`` for ``evaluate_components``.
    """
    ev = _evaluate(model, tree, actions, eta)
    tree.last_actions = [np.array(a, dtype=np.int32) for a in actions]
    return ev.lam, ev.h


def evaluate_components(model: Model, tree: StateTree, actions=None):
    """(delta_e, d) of the given policy (default ``tree.last_actions``).

    Runs the same reduced solve as every evaluation, whose age and distortion
    parts do not depend on eta, so the result is bitwise the one
    ``policy_iteration`` reports for the same table.
    """
    if actions is None:
        actions = tree.last_actions
        if actions is None:
            raise ValueError("no action table given and none recorded on the tree")
    _, delta_e, d, _ = _evaluate_chain(model, tree, _chain(model, tree, actions), 1.0)
    return delta_e, d


# ---------------------------------------------------------------------------
# policy improvement
# ---------------------------------------------------------------------------


def _improve(model: Model, tree: StateTree, parts, lam: float, eta: float) -> list[np.ndarray]:
    """One improvement sweep from the parts of C_h(b, 1); returns the "send oldest" masks.

    A node switches to sending its oldest packet only when that is strictly
    better than inheriting the parent's best by more than the tie guard, and
    when the reach bound for the oldest packet's importance permits it; ties
    therefore stay with the freshest feasible packet.
    """
    reach = model.reach_bounds(eta)[:, None]
    b1mu = (tree.values / model.mu)[:, None]
    takes = [np.zeros(1, dtype=bool), np.ones(tree.level_size[1], dtype=bool)]
    best = np.full(tree.level_size[1], lam)  # C_h(b, s(b)) of the previous level
    for l in range(2, tree.K + 1):
        c1 = eta * (l - 1) + parts[l]
        chain_val = best + b1mu
        take = (l <= reach) & (c1 < chain_val - TIE_TOL)
        takes.append(take.ravel())
        best = np.where(take, c1, chain_val).ravel()
    return takes


def policy_improve(model: Model, tree: StateTree, h_levels, lam: float, eta: float):
    """Public improvement step: returns (per-level action arrays, B1 set).

    The new table is recorded as ``tree.last_actions`` for
    ``evaluate_components``.
    """
    takes = _improve(model, tree, _c1_parts(model, tree, h_levels), lam, eta)
    actions = _chain_actions(tree, takes)
    tree.last_actions = [a.copy() for a in actions]
    b1 = [(l, int(j)) for l in range(2, tree.K + 1) for j in np.flatnonzero(takes[l])]
    return actions, b1


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------


@dataclass
class PolicySolution:
    """A converged stationary policy with its average cost and components."""

    eta: float
    K: int
    lam: float
    delta_e: float
    d: float
    iters: int
    values: tuple[float, ...]
    actions: list[np.ndarray]
    h: list[np.ndarray]
    b1: list[tuple[int, int]] = field(default_factory=list)
    model_hash: str = ""

    @property
    def m(self) -> int:
        return len(self.values)

    @property
    def b1_size(self) -> int:
        return len(self.b1)

    @property
    def max_buffer(self) -> int:
        return self.K

    @cached_property
    def _digit(self) -> dict[float, int]:
        return {v: d for d, v in enumerate(self.values)}

    def action_for(self, entries) -> int:
        l = len(entries)
        if l == 0 or l > self.K:
            raise ValueError(f"buffer length {l} outside 1..{self.K}")
        i = 0
        for v in entries:
            d = self._digit.get(float(v))
            if d is None:
                raise ValueError(f"entry {v!r} is not an importance value {self.values}")
            i = i * self.m + d
        return int(self.actions[l][i])

    def __call__(self, entries) -> int:
        return self.action_for(entries)

    def b1_states(self):
        m = self.m
        for l, i in self.b1:
            digits = [(i // m**p) % m for p in range(l - 1, -1, -1)]
            yield tuple(self.values[d] for d in digits)

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
        if doc.get("format") != POLICY_FORMAT:
            raise ValueError(f"unsupported policy file format {doc.get('format')!r}")
        if doc["model_hash"] != model.config_hash():
            raise ValueError("policy file was solved for a different model")
        values = tuple(float(v) for v in doc["values"])
        if values != tuple(model.v.values):
            raise ValueError(f"policy file values {values} differ from the model's")
        K = int(doc["K"])
        actions = [np.array(_rle_decode(rle), dtype=np.int32) for rle in doc["actions"]]
        b1 = _chain(model, StateTree(model, K), actions).b1
        return cls(
            eta=float(doc["eta"]),
            K=K,
            lam=float(doc["lambda"]),
            delta_e=float(doc["delta_e"]),
            d=float(doc["d"]),
            iters=0,
            values=values,
            actions=actions,
            h=[],
            b1=b1,
            model_hash=doc["model_hash"],
        )


def _rle_encode(arr) -> list[list[int]]:
    out: list[list[int]] = []
    for x in np.asarray(arr, dtype=np.int64):
        if out and out[-1][0] == int(x):
            out[-1][1] += 1
        else:
            out.append([int(x), 1])
    return out


def _rle_decode(rle) -> list[int]:
    out: list[int] = []
    for value, count in rle:
        out.extend([int(value)] * int(count))
    return out


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
    improvement until the action table is a fixed point.
    """
    check_eta(eta)
    if K is None:
        K = model.buffer_bound(eta)
    if start is not None:
        if start.K > K:
            raise ValueError(f"start policy depth {start.K} exceeds K={K}")
        if start.values != tuple(model.v.values):
            raise ValueError(f"start policy values {start.values} differ from the model's")
    tree = StateTree(model, K)
    actions = _chain_actions(tree, () if start is None else [a == 1 for a in start.actions])

    ev = None
    for it in range(1, MAX_ITERS + 1):
        ev = _evaluate(model, tree, actions, eta)
        new = _chain_actions(tree, _improve(model, tree, ev.parts, ev.lam, eta))
        if all(np.array_equal(a, b) for a, b in zip(new, actions)):
            iters = it
            break
        actions = new
    else:
        raise RuntimeError(
            f"policy iteration did not converge within {MAX_ITERS} iterations "
            f"(eta={eta}, K={K}, lambda={ev.lam if ev else float('nan')})"
        )

    return PolicySolution(
        eta=eta,
        K=K,
        lam=ev.lam,
        delta_e=ev.delta_e,
        d=ev.d,
        iters=iters,
        values=tuple(model.v.values),
        actions=actions,
        h=ev.h,
        b1=ev.b1,
        model_hash=model.config_hash(),
    )


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
    A = np.eye(len(cost)) - P
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
            digits = tree.digits_of(l, i)
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
    actions = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(K + 1)]
    lam = float("nan")
    h_levels = None
    for it in range(1, MAX_ITERS + 1):
        lam, delta_e, d, h_levels = _evaluate_full(model, tree, actions, eta)
        changed = False
        for l in range(1, K + 1):
            for i in range(tree.level_size[l]):
                digits = tree.digits_of(l, i)
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
    b1 = [
        (l, i)
        for l in range(2, K + 1)
        for i in range(tree.level_size[l])
        if actions[l][i] == 1
    ]
    return PolicySolution(
        eta=eta,
        K=K,
        lam=lam,
        delta_e=delta_e,
        d=d,
        iters=iters,
        values=tuple(model.v.values),
        actions=[a.copy() for a in actions],
        h=[x.copy() for x in h_levels],
        b1=b1,
        model_hash=model.config_hash(),
    )


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
    converse: list[tuple[float, float]] = field(default_factory=list)
    exact_until: float | None = None
    failures: list[tuple[float, str]] = field(default_factory=list)

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
        curve.converse.append((eta, sol.lam))
    if len(curve.points) >= 2:
        p, q = curve.points[-2], curve.points[-1]
        curve.exact_until = (p.lam - q.lam) / (p.eta - q.eta)
    return curve
