"""Acceptance battery: every criterion at its stated tolerance.

Each test prints one `[criterion NN] PASS/FAIL` line (visible under -s or
in failure output).  Shared solves are cached at module scope so the suite
stays within its time budget.  Each criterion rests on a route independent
of the one it checks:

- 1 distortion floor, 2 send-latest above eta_max, 3 extreme-state
  thresholds: closed forms.
- 4 efficient vs generic policy iteration: the generic dense oracle.
- 5 reach bound: the closed-form reach bounds K_i(eta).
- 6 properties 1-2: h from the generic dense oracle's evaluation of the table.
- 7 solver vs simulator: the simulator.
- 8 strategies: an explicit-chain stationary solve of the S1-S3 chains, the
  simulator, and the solver's converse lines.
- 9 threshold policies: an explicit-chain stationary solve and the simulator.
- 10 Tunstall: exhaustive search over complete trees, the exact coded
  distortion and the simulator's bits run.
- 11 erasure: the literal loop that commits at every slot (``slot_loop``).
- 12 figure orderings: the closed-form S2 and threshold points against the
  solver's converse lines.
"""

import math

import numpy as np
import pytest

from agedist import (
    FinitePMF,
    Geometric,
    ImportanceDist,
    Model,
    generic_policy_iteration,
    policy_iteration,
    sweep_eta,
)
from agedist.bufferignorant import (
    BinarySource,
    PlainThresholdBitPolicy,
    TunstallThresholdBitPolicy,
    oracle_chain_length,
    threshold_chain_matrix,
    threshold_point,
    tunstall_build,
    tunstall_threshold_point,
)
from agedist.sim import SimConfig, simulate_bit_policy, simulate_erasure, simulate_policy
from agedist.strategies import (
    S3Policy,
    s1_point,
    s1_transition_matrix,
    s2_point,
    s2_transition_matrix,
    s3_point,
    s3_transition_matrix,
    stationary_distribution,
    strategy_point,
    window_table,
)
from agedist.verify import (
    property1_violations,
    property2_violations,
    reach_bound_violations,
    s2prime_violations,
)
from slot_loop import reference_packets

HORIZON = 1_000_000


def report(num: int, name: str, ok: bool, detail: str = ""):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def solved(fig1):
    """Solutions shared across criteria, keyed by eta."""
    return {eta: policy_iteration(fig1, eta) for eta in (0.25, 0.5, 1.0, 2.0, 3.8, 4.0, 10.0)}


@pytest.fixture(scope="module")
def fig1_curve(fig1):
    """Warm-started sweep down to buffer size 17, as in the deepest figure run."""
    etas = sorted(set(np.geomspace(3.8, 19.0 / (5 * 17), 16)), reverse=True)
    curve = sweep_eta(fig1, etas)
    assert not curve.failures
    assert max(p.K for p in curve.points) == 17
    return curve


def test_criterion_01_dmin_exact(fig1, fig2):
    ok = abs(fig1.d_min() - 2.7) < 1e-12 and abs(fig2.d_min() - 0.7) < 1e-12
    report(1, "distortion floor closed form", ok, f"{fig1.d_min():.15f} / {fig2.d_min():.15f}")


def test_criterion_02_send_latest_regime(solved):
    lam_ref = 6.7 * 4 / 5
    ok = True
    for eta in (3.8, 4.0, 10.0):
        sol = solved[eta]
        ok &= abs(sol.lam - lam_ref) < 1e-9
        ok &= abs(sol.delta_e) < 1e-12
        ok &= all(np.all(sol.actions[l] == l) for l in range(1, sol.K + 1))
    report(2, "send-latest optimal above eta_max", ok, f"lambda = {lam_ref}")


def test_criterion_03_extreme_state_thresholds(fig1):
    ok = True
    worst = ""
    for L in (2, 3, 4, 5):
        thr = 19.0 / (5.0 * (L - 1))
        state = (20.0,) + (1.0,) * (L - 1)
        below = policy_iteration(fig1, thr - 1e-6, L).action_for(state)
        above = policy_iteration(fig1, thr + 1e-6, L).action_for(state)
        if below != 1 or above != L:
            ok = False
            worst = f"L={L}: below->{below}, above->{above}"
    report(3, "extreme-state threshold flips", ok, worst)


def test_criterion_04_oracle_equivalence():
    rng = np.random.default_rng(42)
    pairs = 0
    ok = True
    detail = ""
    for _ in range(20):
        m = int(rng.integers(2, 4))
        vals = tuple(float(x) for x in np.sort(rng.uniform(0.5, 25.0, size=m)))
        pr = rng.uniform(0.2, 1.0, size=m)
        pr = tuple(float(x) for x in pr / pr.sum())
        if rng.random() < 0.6:
            z = Geometric(float(rng.uniform(0.15, 0.9)))
        else:
            w = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 6)))
            z = FinitePMF(tuple(float(x) for x in w / w.sum()))
        model = Model(ImportanceDist(vals, pr), z)
        for K in (1, 2, 3, 4):
            for eta in (0.5, 1.0, 2.0):
                eff = policy_iteration(model, eta, K)
                gen = generic_policy_iteration(model, eta, K)
                pairs += 1
                same = abs(eff.lam - gen.lam) < 1e-9 and all(
                    np.array_equal(a, b) for a, b in zip(eff.actions[1:], gen.actions[1:])
                )
                if not same:
                    ok = False
                    detail = f"K={K}, eta={eta}, model={model.to_config()}"
    report(4, "efficient vs generic policy iteration", ok, detail or f"{pairs} instances")


def test_criterion_05_reach_bound(fig1, solved, fig1_curve):
    ok = True
    detail = ""
    for eta, sol in solved.items():
        bad = reach_bound_violations(fig1, sol) + s2prime_violations(sol)
        if bad:
            ok = False
            detail = f"eta={eta}: {bad[0]}"
    for p in fig1_curve.points:
        sol = policy_iteration(fig1, p.eta)
        bad = reach_bound_violations(fig1, sol)
        if bad:
            ok = False
            detail = f"swept eta={p.eta}: {bad[0]}"
    report(5, "reach bound on all solved tables", ok, detail)


def test_criterion_06_properties(fig1):
    tri = Model(ImportanceDist((1.0, 6.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.25))
    finite = Model(fig1.v, FinitePMF((0.2, 0.5, 0.3)))
    ok = True
    detail = ""
    for model, etas in ((fig1, (0.5, 0.8, 1.3, 2.2)), (tri, (0.8, 1.5)), (finite, (1.0, 2.0))):
        for eta in etas:
            K = min(model.buffer_bound(eta), 5)
            for sol in (policy_iteration(model, eta, K), generic_policy_iteration(model, eta, K)):
                bad = property1_violations(model, sol) + property2_violations(model, sol)
                if bad:
                    ok = False
                    detail = f"eta={eta}, K={K}: {bad[0]}"
    report(6, "properties 1-2 on solved trees", ok, detail)


def test_criterion_07_solver_vs_simulator(fig1, solved):
    ok = True
    rows = []
    for eta in (0.25, 0.5, 1.0, 2.0):
        sol = solved[eta]
        res = simulate_policy(SimConfig(horizon=HORIZON, seed=int(1000 * eta), model=fig1), sol)
        gap = abs(res.d + eta * res.delta_e - sol.lam)
        se = res.combined_se(eta)
        ok &= gap < 4 * se
        rows.append(f"eta={eta}: {gap / se:.2f}se")
    report(7, "solver vs simulator consistency", ok, "; ".join(rows))


def test_criterion_08_strategies(fig1, fig1_curve):
    ok = True
    detail = ""
    for K in range(1, 16):
        for build, closed in (
            (s1_transition_matrix, s1_point),
            (s2_transition_matrix, s2_point),
            (s3_transition_matrix, s3_point),
        ):
            pi = closed(fig1, K).pi
            num = stationary_distribution(build(fig1, K))
            if np.abs(pi - num).max() >= 1e-10:
                ok = False
                detail = f"stationary mismatch {closed.__name__} K={K}"
    for name in ("S1", "S2", "S3"):
        for K in (3, 8):
            pt = strategy_point(fig1, name, K)
            policy = S3Policy(fig1, K) if name == "S3" else window_table(fig1, name, K)
            res = simulate_policy(SimConfig(horizon=HORIZON, seed=K * 101, model=fig1), policy)
            if abs(res.delta_e - pt.delta_e) >= 4 * res.se_delta:
                ok = False
                detail = f"{name} K={K} delta_e off"
            if abs(res.d - pt.d) >= 4 * res.se_d:
                ok = False
                detail = f"{name} K={K} d off"
    margin = min(
        fig1_curve.min_margin(pt.delta_e, pt.d)
        for name in ("S1", "S2", "S3")
        for pt in (strategy_point(fig1, name, K) for K in range(1, 21))
    )
    ok &= margin >= -1e-6
    report(8, "closed-form strategies vs chains, sims, converse", ok, detail or f"margin {margin:.2e}")


def test_criterion_09_threshold_closed_forms(fig1):
    src = BinarySource.from_model(fig1, 3)
    ok = True
    detail = ""
    for tau in range(13):
        pt = threshold_point(src, tau)
        if abs(pt.pi_sum() - 1.0) >= 1e-10:
            ok = False
            detail = f"tau={tau} pi sum"
        L = oracle_chain_length(src, tau)
        num = stationary_distribution(threshold_chain_matrix(src, tau, L))
        worst = max(abs(pt.pi_of(l) - num[l - 1]) for l in range(1, L - 2))
        if worst >= 1e-9:
            ok = False
            detail = f"tau={tau} pi err {worst:.1e}"
    ok &= abs(threshold_point(src, 0).d - 6.7 * 0.8**3) < 1e-12
    for tau in (0, 4, 9):
        pt = threshold_point(src, tau)
        res = simulate_bit_policy(
            SimConfig(horizon=HORIZON, seed=900 + tau), src, PlainThresholdBitPolicy(src, tau)
        )
        if tau and abs(res.delta_e - pt.delta_e) >= 4 * res.se_delta:
            ok = False
            detail = f"tau={tau} delta_e sim"
        if abs(res.d - pt.d) >= 4 * res.se_d:
            ok = False
            detail = f"tau={tau} d sim"
    report(9, "threshold-policy stationary laws and sims", ok, detail)


def _all_complete_trees(n_leaves):
    if n_leaves == 1:
        return [[""]]
    out = []
    for left in range(1, n_leaves):
        for lt in _all_complete_trees(left):
            for rt in _all_complete_trees(n_leaves - left):
                out.append(["0" + w for w in lt] + ["1" + w for w in rt])
    return out


def test_criterion_10_tunstall(fig1):
    ok = True
    detail = ""
    rng = np.random.default_rng(10)
    for M in (2, 3, 5, 8):
        trees = _all_complete_trees(M)
        for _ in range(10):
            q = float(rng.uniform(0.05, 0.95))
            dic = tunstall_build(q, M)
            if abs(dic.kraft_sum() - 1.0) >= 1e-12:
                ok = False
                detail = f"kraft M={M}"
            best = max(
                sum(len(w) * math.prod(q if c == "1" else 1 - q for c in w) for w in t)
                for t in trees
            )
            if dic.expected_parse_length < best - 1e-12:
                ok = False
                detail = f"suboptimal M={M} q={q:.3f}"
    for n in (3, 6):
        src = BinarySource.from_model(fig1, n)
        dic = tunstall_build(src.q, 2**n)
        ok &= dic.expected_parse_length >= n - 1e-12
        for tau in (0, 2, 5):
            plain = threshold_point(src, tau)
            exact = tunstall_threshold_point(src, tau, dic)
            res = simulate_bit_policy(
                SimConfig(horizon=HORIZON, seed=37 + 10 * n + tau),
                src,
                TunstallThresholdBitPolicy(src, tau, dic),
            )
            if res.d > plain.d + 2 * res.se_d:
                ok = False
                detail = f"N={n} tau={tau}: coded {res.d:.4f} vs plain {plain.d:.4f}"
            if exact.d > plain.d:
                ok = False
                detail = f"N={n} tau={tau}: exact coded {exact.d:.4f} vs plain {plain.d:.4f}"
            if abs(res.d - exact.d) >= 4 * res.se_d:
                ok = False
                detail = f"N={n} tau={tau}: coded {res.d:.4f} vs exact {exact.d:.4f}"
    report(10, "tunstall optimality and coded improvement", ok, detail)


def test_criterion_11_erasure_equivalence(fig1, solved):
    """The erasure walk over the delivering slots, bit for bit the literal commitment at every slot."""
    cfg = SimConfig(horizon=40_000, seed=502, model=fig1)
    eras = simulate_erasure(cfg, solved[1.0])
    ref = reference_packets(cfg, solved[1.0], erasure=True)
    ok = all(getattr(eras, f) == getattr(ref, f) for f in ("delta_e", "se_delta", "d", "se_d", "batches"))
    ok &= eras.batch_delta.tobytes() == ref.batch_delta.tobytes() and eras.batch_d.tobytes() == ref.batch_d.tobytes()
    report(11, "erasure commitment equals its every-slot loop", ok, f"d {eras.d!r}, delta_e {eras.delta_e!r}")


def test_criterion_12_figure_orderings(fig1, fig1_curve):
    """Caption claims: S2 nearly coincides with PI; BI/BIT at N = 3 beat PI."""
    s2_margin = max(
        fig1_curve.min_margin(pt.delta_e, pt.d)
        for pt in (s2_point(fig1, K) for K in range(1, 21))
    )
    src = BinarySource.from_model(fig1, 3)
    bi_margin = min(
        fig1_curve.min_margin(pt.delta_e, pt.d)
        for pt in (threshold_point(src, tau) for tau in range(8))
    )
    ok = s2_margin <= 0.05 and bi_margin < -0.05
    report(
        12,
        "figure orderings (S2 ~ PI, BI beats PI at N=3)",
        ok,
        f"S2 max margin {s2_margin:.4f}, BI best margin {bi_margin:.4f}",
    )
