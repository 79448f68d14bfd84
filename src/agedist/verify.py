"""Desk-scale verification battery behind the `verify` CLI command.

Each check is a scaled-down version of the acceptance criterion of its
number, and each rests on a route independent of the efficient solver:

- 1 d_min, 2 send-latest above eta_max, 3 extreme-state threshold flip: closed
  forms (the floors 2.7 and 0.7, E[V] (mu - 1) / mu, (v_max - v_min) / (mu (L - 1))).
- 4 efficient vs generic policy iteration: the generic dense oracle.
- 5+6 reach bound and properties 1-2: the closed-form reach bounds, and h from
  the generic dense oracle's evaluation of the table (``_evaluate_full``).
- 7 solver vs simulator: the simulator.
- 8 strategy stationary + converse dominance: an explicit-chain stationary solve
  of the S1 and S3 chains, then the closed forms against the solver's converse.
- 9 threshold-policy closed forms: an explicit-chain stationary solve.
- 10 tunstall: the simulator's bits run against the exact coded distortion.

There is no erasure check: with geometric gaps ``simulate_erasure`` is
``simulate_policy`` on the same streams (see ``sim``).  The battery returns
per-check rows so the CLI can print a table and exit nonzero on any failure.

``lambda_perturbation`` deliberately shifts the converse intercepts before
the dominance check; it exists as a negative-control hook.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .bufferignorant import (
    BinarySource,
    TunstallThresholdBitPolicy,
    oracle_chain_length,
    threshold_chain_matrix,
    threshold_point,
    tunstall_build,
    tunstall_threshold_point,
)
from .model import Geometric, ImportanceDist, Model
from .sim import SimConfig, simulate_bit_policy, simulate_policy
from .solver import PolicySolution, _evaluate_full, generic_policy_iteration, policy_iteration, sweep_eta
from .statetree import StateTree, picked_digits
from .strategies import (
    s1_point,
    s1_transition_matrix,
    s3_point,
    s3_transition_matrix,
    stationary_distribution,
    strategy_point,
)


BATTERY_HORIZON = 150_000  # slots per simulation
PROPERTY_TOL = 1e-10  # slack of the Property 1 and 2 inequalities


def figure1_model() -> Model:
    return Model(ImportanceDist((1.0, 20.0), (0.7, 0.3)), Geometric(0.2))


def figure2_model() -> Model:
    return Model(ImportanceDist((1.0, 20.0), (0.8, 0.2)), Geometric(0.3))


# ---------------------------------------------------------------------------
# structural checks on solved policies (shared with the test suite)
# ---------------------------------------------------------------------------


def _dense_h(model: Model, sol: PolicySolution) -> list[np.ndarray]:
    """Relative values of the solution's table from the dense oracle, per level."""
    return _evaluate_full(model, StateTree(model, sol.K), sol.actions, sol.eta)[3]


def _state_value_sums(sol: PolicySolution) -> list[np.ndarray]:
    """Total importance of every state, per level, on the (oldest digit, parent) view."""
    values = np.asarray(sol.values)[:, None]
    sums: list[np.ndarray] = [np.zeros(1)]
    for l in range(1, sol.K + 1):
        sums.append((values + sums[l - 1]).ravel())
    return sums


def s2prime_violations(sol: PolicySolution) -> list[str]:
    """States that select a stale minimum-importance packet."""
    out = []
    for l in range(2, sol.K + 1):
        s = sol.actions[l].astype(np.int64)
        bad = np.flatnonzero((s < l) & (picked_digits(s, l, sol.m) == 0))
        out.extend(f"level {l} state {i}" for i in bad[:5])
    return out


def reach_bound_violations(model: Model, sol: PolicySolution) -> list[str]:
    """Reaching-back actions must satisfy l - s < K_i(eta) for the chosen value.

    Sending the freshest packet (s = l, age 0) carries no reach and is
    exempt; the bound is vacuous there and fails only on the trivial
    minimum-importance case.
    """
    kvals = model.reach_bounds(sol.eta)
    out = []
    for l in range(2, sol.K + 1):
        s = sol.actions[l].astype(np.int64)
        bad = np.flatnonzero((s < l) & ~((l - s) < kvals[picked_digits(s, l, sol.m)]))
        out.extend(f"level {l} state {i} action {s[i]}" for i in bad[:5])
    return out


def property1_violations(model: Model, sol: PolicySolution) -> list[str]:
    """Prefix-decomposition laws of optimal actions and relative values.

    Level l viewed as (m**j, m**(l-j)) has the oldest j entries as its row
    and the suffix after them as its column; h is the dense oracle's.
    """
    mu = model.mu
    mu_sums = _state_value_sums(sol)
    h = _dense_h(model, sol)
    out = []
    for l in range(2, sol.K + 1):
        for j in range(1, l):
            s_q = sol.actions[l].reshape(sol.m**j, -1)
            h_q = h[l].reshape(sol.m**j, -1)
            s_suf, h_suf = sol.actions[l - j], h[l - j]
            ok_act = (s_q == j + s_suf) | (s_q <= j)
            if not ok_act.all():
                i = int(np.flatnonzero(~ok_act)[0])
                out.append(f"P1(i) level {l} split {j} state {i}")
            prefix = mu_sums[j][:, None]
            ok_h = (h_suf <= h_q + PROPERTY_TOL) & (h_q <= prefix / mu + h_suf + PROPERTY_TOL)
            if not ok_h.all():
                i = int(np.flatnonzero(~ok_h)[0])
                out.append(f"P1(ii) level {l} split {j} state {i}")
    return out


def property2_violations(model: Model, sol: PolicySolution) -> list[str]:
    """Non-B1 states must satisfy h = b1/mu + h(parent), with h the dense oracle's."""
    values = np.asarray(sol.values)[:, None]
    h = _dense_h(model, sol)
    out = []
    for l in range(2, sol.K + 1):
        chain = sol.actions[l] != 1
        gap = np.abs(h[l] - (values / model.mu + h[l - 1]).ravel())
        bad = np.flatnonzero(chain & (gap > PROPERTY_TOL))
        out.extend(f"level {l} state {i} gap {gap[i]:.2e}" for i in bad[:5])
    return out


# ---------------------------------------------------------------------------
# the battery
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None: skipped, the model lacks what the check needs
    detail: str


def run_battery(
    model: Model | None = None, *, seed: int = 20240, lambda_perturbation: float = 0.0
) -> list[CheckResult]:
    """Every check that applies to the model; one that raises is a failed row, not an abort."""
    checks: list[CheckResult] = []
    fig1 = model if model is not None else figure1_model()
    cfg = SimConfig(horizon=BATTERY_HORIZON, seed=seed, model=fig1)  # a bad seed fails before any check runs
    fig2 = figure2_model()
    geometric = isinstance(fig1.z, Geometric)

    @contextmanager
    def check(name: str, needs: str | None = None):
        """Yield ``add(passed, detail)`` for one check, or None when the model lacks ``needs``."""
        if needs:
            checks.append(CheckResult(name, None, f"needs {needs}"))
        try:
            yield None if needs else (
                lambda ok, detail="": checks.append(CheckResult(name, bool(ok), detail))
            )
        except (ValueError, RuntimeError) as exc:
            checks.append(CheckResult(name, False, f"error: {exc}"))

    # 1. distortion floor closed form
    with check("d_min closed form") as add:
        d1, d2 = figure1_model().d_min(), fig2.d_min()
        add(abs(d1 - 2.7) < 1e-12 and abs(d2 - 0.7) < 1e-12, f"{d1:.12f}, {d2:.12f}")

    # 2. send-latest optimality above eta_max; 3. extreme-state thresholds.  One value has eta_max = 0.
    several = None if fig1.v.size >= 2 else "two importance values"
    with check("send-latest above eta_max", several) as add:
        if add:
            lam_ref = fig1.mean_importance * (fig1.mu - 1.0) / fig1.mu
            ok = True
            for eta in (fig1.eta_max(), 2 * fig1.eta_max()):
                sol = policy_iteration(fig1, eta)
                ok &= abs(sol.lam - lam_ref) < 1e-9 and abs(sol.delta_e) < 1e-12
            add(ok, f"lambda ref {lam_ref:.6f}")

    with check("extreme-state threshold flip", several) as add:
        if add:
            ok = True
            vspan = fig1.v.v_max - fig1.v.v_min
            for L in (2, 3):
                thr = vspan / (fig1.mu * (L - 1))
                st = (fig1.v.v_max,) + (fig1.v.v_min,) * (L - 1)
                ok &= policy_iteration(fig1, thr - 1e-6, L).action_for(st) == 1
                ok &= policy_iteration(fig1, thr + 1e-6, L).action_for(st) == L
            add(ok)

    # 4. efficient vs generic agreement
    with check("efficient vs generic policy iteration") as add:
        ok, detail = True, ""
        for K in (1, 2, 3):
            for eta in (0.7, 1.3):
                a = policy_iteration(fig1, eta, K)
                b = generic_policy_iteration(fig1, eta, K)
                same = abs(a.lam - b.lam) < 1e-9 and all(
                    np.array_equal(x, y) for x, y in zip(a.actions[1:], b.actions[1:])
                )
                if not same:
                    ok, detail = False, f"mismatch at K={K}, eta={eta}"
        add(ok, detail)

    # 5+6. structural properties of solved trees
    with check("reach bound and properties 1-2") as add:
        ok, detail = True, ""
        for eta in (0.6, 1.0, 2.0):
            sol = policy_iteration(fig1, eta, min(fig1.buffer_bound(eta), 4))
            gen = generic_policy_iteration(fig1, eta, min(fig1.buffer_bound(eta), 4))
            for tag, s in (("efficient", sol), ("generic", gen)):
                bad = (
                    reach_bound_violations(fig1, s)
                    + s2prime_violations(s)
                    + property1_violations(fig1, s)
                    + property2_violations(fig1, s)
                )
                if bad:
                    ok, detail = False, f"{tag} eta={eta}: {bad[0]}"
        add(ok, detail)

    # 7. solver vs simulator
    with check("solver vs simulator") as add:
        sol = policy_iteration(fig1, 1.0)
        direct = simulate_policy(cfg, sol)
        gap = abs(direct.d + 1.0 * direct.delta_e - sol.lam)
        se = direct.combined_se(1.0)
        add(gap <= 4 * se, f"gap {gap:.5f} vs 4se {4 * se:.5f}")  # <=: a deterministic run, SE 0, must match exactly

    # 8. strategies: stationary solves and converse dominance
    binary = None if fig1.v.size == 2 and geometric and fig1.z.p < 1.0 else "two importance values and geometric p < 1"
    with check("strategy stationary + converse dominance", binary) as add:
        if add:
            ok = True
            closed_forms = ((s1_point, s1_transition_matrix), (s3_point, s3_transition_matrix))
            for K in (1, 3, 6):
                for point, matrix in closed_forms:
                    pi = stationary_distribution(matrix(fig1, K))
                    ok &= np.abs(point(fig1, K).pi - pi).max() < 1e-10
            curve = sweep_eta(fig1, list(np.geomspace(fig1.eta_max(), 0.6, 8)))
            margin = min(
                curve.min_margin(pt.delta_e, pt.d)
                for name in ("S1", "S2", "S3")
                for pt in (strategy_point(fig1, name, K) for K in range(1, 13))
            ) - lambda_perturbation
            ok &= margin >= -1e-6
            add(ok, f"margin {margin:.3e}")

    # 9. threshold-policy closed form vs chain solve
    src = BinarySource.from_model(figure1_model(), 3)
    with check("threshold-policy closed forms") as add:
        ok = True
        for tau in (0, 2, 5):
            pt = threshold_point(src, tau)
            L = oracle_chain_length(src, tau)
            num = stationary_distribution(threshold_chain_matrix(src, tau, L))
            ok &= max(abs(pt.pi_of(l) - num[l - 1]) for l in range(1, L - 2)) < 1e-9
            ok &= abs(pt.pi_sum() - 1.0) < 1e-10
        ok &= abs(threshold_point(src, 0).d - src.mu_v * (1 - src.p) ** src.N) < 1e-12
        add(ok)

    # 10. tunstall dictionaries and the coded improvement
    with check("tunstall kraft/E[L]/improvement") as add:
        dic = tunstall_build(src.q, 2**src.N)
        ok = abs(dic.kraft_sum() - 1.0) < 1e-12 and dic.expected_parse_length >= src.N
        tau = 2
        plain = threshold_point(src, tau)
        exact = tunstall_threshold_point(src, tau, dic)
        bit = simulate_bit_policy(cfg, src, TunstallThresholdBitPolicy(src, tau, dic))
        ok &= bit.d <= plain.d + 2 * bit.se_d
        ok &= exact.d <= plain.d and abs(bit.d - exact.d) < 4 * bit.se_d
        add(ok, f"bit d {bit.d:.4f} (exact {exact.d:.4f}) vs plain {plain.d:.4f}")

    return checks


def print_report(checks: list[CheckResult]) -> bool:
    width = max(len(c.name) for c in checks)
    all_ok = all(c.passed is not False for c in checks)
    for c in checks:
        mark = {True: "PASS", False: "FAIL", None: "SKIP"}[c.passed]
        suffix = f"  ({c.detail})" if c.detail else ""
        print(f"{c.name:<{width}}  {mark}{suffix}")
    print("all checks passed" if all_ok else "FAILURES present")
    return all_ok
