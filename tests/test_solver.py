import hashlib
import itertools
import math

import numpy as np
import pytest

from agedist import (
    FinitePMF,
    Geometric,
    ImportanceDist,
    Model,
    StateTree,
    c_value,
    evaluate_components,
    evaluate_policy,
    generic_policy_iteration,
    kappa_update,
    one_step_cost,
    policy_improve,
    policy_iteration,
    sweep_eta,
)
from agedist import solver
from agedist.solver import (
    PolicySolution,
    _c1_parts,
    _chain_actions,
    _evaluate,
    _evaluate_full,
    average_cost_solve,
)
from agedist.verify import (
    property1_violations,
    property2_violations,
    reach_bound_violations,
    s2prime_violations,
)


def brute_c_value(model, tree, h_levels, state, s, eta, zmax=300):
    """First-principles enumeration over the interspeak time and arrivals.

    Independent of the solver's block bookkeeping: walks every Z <= zmax,
    drops oldest entries past the K-window charging them at 1/mu, and
    enumerates the kept arrival suffix exhaustively.
    """
    K, m = tree.K, tree.m
    mu, ev = model.mu, model.mean_importance
    values = model.v.values
    alpha = model.v.probs
    leftover = tuple(state[s:])
    val = one_step_cost(model, eta, state, s)
    for z in range(1, zmax + 1):
        pz = model.z_pmf(z)
        if pz == 0.0:
            continue
        ndrop = max(0, len(leftover) + z - K)
        drop_left = min(ndrop, len(leftover))
        drop_arrivals = ndrop - drop_left
        const = sum(leftover[:drop_left]) / mu + drop_arrivals * ev / mu
        kept = leftover[drop_left:]
        z_keep = z - drop_arrivals
        exp_h = 0.0
        for combo in itertools.product(range(m), repeat=z_keep):
            w = math.prod(alpha[c] for c in combo)
            lvl, idx = tree.locate(kept + tuple(values[c] for c in combo))
            exp_h += w * h_levels[lvl][idx]
        val += pz * (const + exp_h)
    return val


def actions_digest(actions):
    """SHA-256 of the int32 bytes of action levels 0..K."""
    h = hashlib.sha256()
    for level in actions:
        h.update(np.asarray(level, dtype=np.int32).tobytes())
    return h.hexdigest()


def random_h(tree, seed):
    rng = np.random.default_rng(seed)
    h = [rng.normal(scale=3.0, size=n) for n in tree.level_size]
    h[0][:] = 0.0
    return h


# ---------------------------------------------------------------------------
# one-step and C-values
# ---------------------------------------------------------------------------


def test_one_step_cost_examples(fig1):
    assert one_step_cost(fig1, 1.0, (20.0, 1.0, 1.0), 1) == pytest.approx(2.0)
    assert one_step_cost(fig1, 1.0, (20.0, 1.0, 1.0), 3) == pytest.approx(4.2)
    assert one_step_cost(fig1, 1.0, (1.0,), 1) == 0.0
    with pytest.raises(ValueError):
        one_step_cost(fig1, 1.0, (1.0,), 2)


def test_c_value_k1_closed_form(fig1):
    tree = StateTree(fig1, 1)
    h0 = [np.zeros(n) for n in tree.level_size]
    got = c_value(fig1, tree, h0, (1.0,), 1, 1.0)
    assert got == pytest.approx(5.36, abs=1e-12)
    assert got == pytest.approx(brute_c_value(fig1, tree, h0, (1.0,), 1, 1.0), abs=1e-10)


def test_c_value_matches_brute_force(fig1):
    # includes the s = l boundary where the lumped tail must not double count
    for K in (1, 2, 3):
        tree = StateTree(fig1, K)
        h = random_h(tree, K)
        for l in range(1, K + 1):
            for i in range(tree.level_size[l]):
                state = tree.entries_of(l, i)
                for s in range(1, l + 1):
                    direct = c_value(fig1, tree, h, state, s, 0.8)
                    brute = brute_c_value(fig1, tree, h, state, s, 0.8)
                    assert direct == pytest.approx(brute, abs=1e-10), (state, s)


def test_c_value_brute_force_finite_pmf():
    model = Model(ImportanceDist((1.0, 4.0), (0.6, 0.4)), FinitePMF((0.3, 0.5, 0.2)))
    tree = StateTree(model, 2)
    h = random_h(tree, 9)
    for l in range(1, 3):
        for i in range(tree.level_size[l]):
            state = tree.entries_of(l, i)
            for s in range(1, l + 1):
                direct = c_value(model, tree, h, state, s, 1.3)
                brute = brute_c_value(model, tree, h, state, s, 1.3, zmax=3)
                assert direct == pytest.approx(brute, abs=1e-11)


def test_c_value_dominates_one_step(fig1):
    tree = StateTree(fig1, 3)
    h0 = [np.zeros(n) for n in tree.level_size]
    for l in range(1, 4):
        for i in range(tree.level_size[l]):
            state = tree.entries_of(l, i)
            for s in range(1, l + 1):
                assert c_value(fig1, tree, h0, state, s, 1.0) >= one_step_cost(
                    fig1, 1.0, state, s
                ) - 1e-12


def test_kappa_matches_direct_c1(fig1):
    for K in (2, 3, 5):
        tree = StateTree(fig1, K)
        h = random_h(tree, 100 + K)
        parts = _c1_parts(fig1, tree, h)
        for l in range(1, K + 1):
            for i in range(tree.level_size[l]):
                c1 = 1.0 * (l - 1) + parts[l][i % tree.level_size[l - 1]]
                direct = c_value(fig1, tree, h, tree.entries_of(l, i), 1, 1.0)
                assert c1 == pytest.approx(direct, abs=1e-10)


def test_kappa_root_value(fig1):
    tree = StateTree(fig1, 1)
    h0 = [np.zeros(n) for n in tree.level_size]
    kappa = kappa_update(fig1, tree, h0)
    assert kappa[0][0] == pytest.approx(5.36, abs=1e-12)


# ---------------------------------------------------------------------------
# policy evaluation
# ---------------------------------------------------------------------------


def test_send_latest_evaluation(fig1):
    for K in (1, 2, 4):
        tree = StateTree(fig1, K)
        actions = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(K + 1)]
        lam, h = evaluate_policy(fig1, tree, actions, 1.0)
        assert lam == pytest.approx(5.36, abs=1e-12)
        assert np.all(h[1] == 0.0)
        delta_e, d = evaluate_components(fig1, tree)
        assert delta_e == pytest.approx(0.0, abs=1e-12)
        assert d == pytest.approx(5.36, abs=1e-12)


def test_single_value_alphabet():
    model = Model(ImportanceDist((3.0,), (1.0,)), Geometric(0.25))
    sol = policy_iteration(model, 1.0)
    assert sol.K == 1
    assert sol.lam == pytest.approx(3.0 * (model.mu - 1.0) / model.mu, abs=1e-12)


def test_eta_scaling_linearity(fig1):
    tree = StateTree(fig1, 3)
    sol = policy_iteration(fig1, 0.9, 3)
    lam1, _ = evaluate_policy(fig1, tree, sol.actions, 0.9)
    lam2, _ = evaluate_policy(fig1, tree, sol.actions, 1.8)
    delta_e, d = evaluate_components(fig1, tree)
    assert lam1 - d == pytest.approx(0.9 * delta_e, abs=1e-9)
    assert lam2 - d == pytest.approx(1.8 * delta_e, abs=1e-9)


def test_non_chain_actions_rejected(fig1):
    tree = StateTree(fig1, 3)
    actions = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(4)]
    actions[3][:] = 2  # not 1 and not parent+1
    with pytest.raises(ValueError):
        evaluate_policy(fig1, tree, actions, 1.0)


@pytest.mark.parametrize(
    "mangle, match",
    [
        (lambda acts: acts[:3], "has 3 levels, expected 5"),
        (lambda acts: acts[:3] + [acts[3][:-1]] + acts[4:], "level 3 has shape"),
        (lambda acts: acts[:2] + [np.ones((1, 4), dtype=np.int32)] + acts[3:], "level 2 has shape"),
        (lambda acts: [acts[0], np.array([1, 2], dtype=np.int32)] + acts[2:], "level 1"),
    ],
)
def test_malformed_action_tables_rejected(fig1, mangle, match):
    tree = StateTree(fig1, 4)
    actions = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(5)]
    with pytest.raises(ValueError, match=match):
        evaluate_policy(fig1, tree, mangle(actions), 1.0)
    with pytest.raises(ValueError, match=match):
        evaluate_components(fig1, tree, mangle(actions))


def test_average_cost_solve_rejects_multichain():
    # two absorbing states: lambda is not unique
    with pytest.raises(RuntimeError, match="singular"):
        average_cost_solve(np.eye(2), np.array([1.0, 2.0]))


def test_average_cost_solve_cost_matrix():
    # one factorization, one column per cost: same answers as separate solves
    rng = np.random.default_rng(5)
    P = rng.uniform(size=(6, 6))
    P /= P.sum(axis=1, keepdims=True)
    cost = rng.normal(size=(6, 3))
    lam, h = average_cost_solve(P, cost)
    assert lam.shape == (3,) and h.shape == (6, 3)
    for c in range(3):
        lam_c, h_c = average_cost_solve(P, cost[:, c])
        assert lam[c] == pytest.approx(lam_c, abs=1e-12)
        np.testing.assert_allclose(h[:, c], h_c, atol=1e-12)


def _random_chain_models():
    rng = np.random.default_rng(31)
    gaps = [
        Geometric(0.3),
        Geometric(0.75),
        FinitePMF((0.4, 0.0, 0.6)),
        FinitePMF((0.0, 0.5, 0.0, 0.5)),
    ]
    for m in (2, 3, 4):
        for gap in gaps:
            vals = tuple(float(x) for x in np.sort(rng.uniform(0.5, 25.0, size=m)))
            pr = rng.uniform(0.2, 1.0, size=m)
            yield Model(ImportanceDist(vals, tuple(float(x) for x in pr / pr.sum())), gap)


@pytest.mark.parametrize("model", list(_random_chain_models()), ids=lambda m: f"V{m.v.size}-{m.z}")
def test_reduced_system_matches_dense_on_random_chain_policies(model):
    # arbitrary "send oldest" masks, not just optimal ones, so the shared
    # suffix-chain blocks of the reduced assembly meet B1 patterns the
    # improvement step never produces; the zero-probability gaps of the
    # FinitePMF cases exercise the skipped blocks
    rng = np.random.default_rng(model.v.size)
    for K in range(1, 5 if model.v.size < 4 else 4):
        tree = StateTree(model, K)
        for density in (0.2, 0.5, 0.9):
            takes = [None, None] + [rng.random(n) < density for n in tree.level_size[2:]]
            actions = _chain_actions(tree, takes)
            eta = float(rng.uniform(0.2, 3.0))
            ev = _evaluate(model, tree, actions, eta)
            lam, delta_e, d, h = _evaluate_full(model, tree, actions, eta)
            assert ev.lam == pytest.approx(lam, abs=1e-10)
            assert ev.delta_e == pytest.approx(delta_e, abs=1e-10)
            assert ev.d == pytest.approx(d, abs=1e-10)
            for l in range(1, K + 1):
                np.testing.assert_allclose(ev.h[l], h[l], atol=1e-9)


@pytest.fixture(scope="module")
def three_level():
    """V = {1, 5, 20} with probabilities (.5, .3, .2), geometric p = 0.2."""
    model = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    return model, policy_iteration(model, 0.35)


def test_three_level_deep_solve_pinned(three_level):
    # |B1| = 1089 at K = 11.  The constants were computed by the earlier
    # assembly of the reduced system (one pass per row, plus two more solves
    # for the components), which took about 5 s on this model.
    model, sol = three_level
    assert (sol.K, sol.b1_size, sol.iters) == (11, 1089, 3)
    assert sol.lam == pytest.approx(3.7921267627933393, abs=1e-9)
    assert sol.delta_e == pytest.approx(1.5123697400042895, abs=1e-9)
    assert sol.d == pytest.approx(3.2627973537918398, abs=1e-9)
    assert actions_digest(sol.actions) == (
        "3535653040ce6aa8bd5e7c1a980efafccc8fd7830252f4d09c65e3519b4f73a3"
    )


def test_fig1_sweep_grid_end_pinned(fig1):
    # the warm-started fig1 grid of the tradeoff benchmark, 3.8 down to 0.2
    start = None
    for eta in np.geomspace(3.8, 0.2, 24):
        K = fig1.buffer_bound(eta) if start is None else max(fig1.buffer_bound(eta), start.K)
        start = policy_iteration(fig1, float(eta), K, start=start)
    assert (start.K, start.b1_size, start.iters) == (19, 63, 3)
    assert actions_digest(start.actions) == (
        "a9c0f0e4318d5a66d555ef7318f3c5d5fec13fd839820513e28356a91d29f26a"
    )


@pytest.mark.parametrize("case", ["fig1", "three_level"])
def test_components_bitwise_equal_across_paths(case, fig1, three_level):
    # policy_iteration takes delta_e and d from its last evaluation; the
    # step-wise API must reproduce them exactly
    if case == "fig1":
        model, sol = fig1, policy_iteration(fig1, 0.3)
    else:
        model, sol = three_level
    tree = StateTree(model, sol.K)
    lam, h = evaluate_policy(model, tree, sol.actions, sol.eta)
    delta_e, d = evaluate_components(model, tree)
    assert (lam, delta_e, d) == (sol.lam, sol.delta_e, sol.d)
    # the step-wise improvement from the converged (lambda, h) is the fixed point
    actions, _ = policy_improve(model, tree, h, lam, sol.eta)
    assert [(a.dtype, a.tobytes()) for a in actions] == [
        (a.dtype, a.tobytes()) for a in sol.actions
    ]


def test_residual_gate_rejects_perturbed_h(fig1, monkeypatch):
    # shift one B1 entry of the solved h: the kappa-route residual must fire
    sol = policy_iteration(fig1, 0.3)
    real = solver._evaluate_chain

    def shifted(model, tree, chain, eta):
        lam, delta_e, d, h = real(model, tree, chain, eta)
        if chain.b1:
            l, i = chain.b1[0]
            h[l][i] += 1e-6
        return lam, delta_e, d, h

    monkeypatch.setattr(solver, "_evaluate_chain", shifted)
    with pytest.raises(RuntimeError, match="residual"):
        policy_iteration(fig1, 0.3)
    with pytest.raises(RuntimeError, match="residual"):
        evaluate_policy(fig1, StateTree(fig1, sol.K), sol.actions, 0.3)


def test_components_respect_floor(fig1):
    for eta in (0.4, 1.0, 2.5):
        sol = policy_iteration(fig1, eta)
        assert sol.d >= fig1.d_min() - 1e-9
        assert sol.lam == pytest.approx(sol.d + eta * sol.delta_e, abs=1e-9)


# ---------------------------------------------------------------------------
# policy improvement
# ---------------------------------------------------------------------------


def test_improve_keeps_send_latest_above_eta_max(fig1):
    K = 3
    tree = StateTree(fig1, K)
    send_latest = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(K + 1)]
    eta = fig1.eta_max() + 0.2
    lam, h = evaluate_policy(fig1, tree, send_latest, eta)
    actions, b1 = policy_improve(fig1, tree, h, lam, eta)
    for l in range(1, K + 1):
        assert np.all(actions[l] == l)
    assert b1 == []


def test_improve_extreme_state_both_sides(fig1):
    thr = (20.0 - 1.0) / (5.0 * 1.0)  # L = 2
    for eta, expect in ((thr - 1e-6, 1), (thr + 1e-6, 2)):
        tree = StateTree(fig1, 2)
        send_latest = [np.full(tree.level_size[l], l, dtype=np.int32) for l in range(3)]
        lam, h = evaluate_policy(fig1, tree, send_latest, eta)
        actions, _ = policy_improve(fig1, tree, h, lam, eta)
        lvl, idx = tree.locate((20.0, 1.0))
        assert actions[lvl][idx] == expect


# ---------------------------------------------------------------------------
# full policy iteration
# ---------------------------------------------------------------------------


def test_send_latest_optimal_above_eta_max(fig1):
    for eta in (3.8, 4.0, 10.0):
        sol = policy_iteration(fig1, eta)
        assert sol.K == 1
        assert sol.lam == pytest.approx(5.36, abs=1e-9)
        assert sol.delta_e == pytest.approx(0.0, abs=1e-12)


def test_efficient_matches_generic(fig1):
    for K in (1, 2, 3, 4):
        for eta in (0.5, 1.0, 2.0):
            eff = policy_iteration(fig1, eta, K)
            gen = generic_policy_iteration(fig1, eta, K)
            assert eff.lam == pytest.approx(gen.lam, abs=1e-9)
            assert eff.delta_e == pytest.approx(gen.delta_e, abs=1e-9)
            assert eff.d == pytest.approx(gen.d, abs=1e-9)
            for l in range(1, K + 1):
                assert np.array_equal(eff.actions[l], gen.actions[l])


def test_generic_k1_closed_form(fig1):
    sol = generic_policy_iteration(fig1, 1.0, 1)
    assert sol.lam == pytest.approx(6.7 * 4 / 5, abs=1e-12)


def test_solution_structure(fig1):
    sol = policy_iteration(fig1, 0.8)
    assert s2prime_violations(sol) == []
    assert reach_bound_violations(fig1, sol) == []
    assert property2_violations(fig1, sol) == []
    assert property1_violations(fig1, sol) == []
    for state in sol.b1_states():
        assert len(state) >= 2
        assert state[0] > 1.0


def test_properties_on_generic_h(fig1):
    # the generic route fills h from the dense solve, so the parent recursion
    # is a real cross-check there rather than true by construction
    for eta in (0.7, 1.2):
        gen = generic_policy_iteration(fig1, eta, 4)
        assert property2_violations(fig1, gen) == []
        assert property1_violations(fig1, gen) == []


def test_policy_solution_round_trip(fig1, tmp_path):
    sol = policy_iteration(fig1, 1.0)
    path = tmp_path / "pol.json"
    sol.to_json(str(path))
    back = PolicySolution.from_json(str(path), fig1)
    assert back.lam == sol.lam
    assert back.K == sol.K
    for l in range(1, sol.K + 1):
        assert np.array_equal(back.actions[l], sol.actions[l])
    assert back.action_for((20.0, 1.0)) == sol.action_for((20.0, 1.0))
    assert back.b1 == sol.b1
    other = Model(ImportanceDist((1.0, 2.0), (0.5, 0.5)), Geometric(0.2))
    with pytest.raises(ValueError):
        PolicySolution.from_json(str(path), other)


def _corrupt(doc):
    doc["actions"][3] = [[3, 7]]  # level 3 has 8 states


def _drop_levels(doc):
    doc["actions"] = doc["actions"][:2]


def _break_chain(doc):
    doc["actions"][3] = [[2, 8]]  # not 1 and not parent + 1 everywhere


def _swap_values(doc):
    doc["values"] = doc["values"][::-1]


@pytest.mark.parametrize(
    "mangle, match",
    [
        (_corrupt, "level 3 has shape"),
        (_drop_levels, "has 2 levels, expected 5"),
        (_break_chain, "level 3 is not chain-structured"),
        (_swap_values, "values"),
    ],
)
def test_policy_file_validated_at_load(fig1, tmp_path, mangle, match):
    import json

    path = tmp_path / "pol.json"
    policy_iteration(fig1, 1.0, 4).to_json(str(path))
    doc = json.loads(path.read_text())
    mangle(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=match):
        PolicySolution.from_json(str(path), fig1)


def test_action_for_rejects_unknown_value(fig1):
    sol = policy_iteration(fig1, 1.0)
    assert sol.action_for((20.0, 1.0)) == sol.action_for([20, 1])
    with pytest.raises(ValueError, match="importance value"):
        sol.action_for((20.0, 3.0))


def test_zero_importance_packets_are_ordinary():
    model = Model(ImportanceDist((0.0, 10.0), (0.6, 0.4)), Geometric(0.25))
    sol = policy_iteration(model, 0.8)
    gen = generic_policy_iteration(model, 0.8, sol.K)
    assert sol.lam == pytest.approx(gen.lam, abs=1e-9)
    assert s2prime_violations(sol) == []
    assert sol.d >= model.d_min() - 1e-9


def test_argmin_tie_break_prefers_freshest():
    # equal importance values collapse every C-value tie onto larger s
    model = Model(ImportanceDist((2.0,), (1.0,)), Geometric(0.5))
    sol = policy_iteration(model, 1.0, 3)
    gen = generic_policy_iteration(model, 1.0, 3)
    for l in range(1, 4):
        assert np.all(sol.actions[l] == l)
        assert np.array_equal(sol.actions[l], gen.actions[l])


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_eta_basics(fig1):
    etas = [3.8, 2.5, 1.4, 1.0, 0.8]
    curve = sweep_eta(fig1, etas)
    assert [p.eta for p in curve.points] == etas
    first = curve.points[0]
    assert first.delta_e == pytest.approx(0.0, abs=1e-12)
    assert first.d == pytest.approx(5.36, abs=1e-9)
    lams = [p.lam for p in curve.points]
    assert all(b <= a + 1e-12 for a, b in zip(lams, lams[1:]))
    for p in curve.points:
        assert p.d + p.eta * p.delta_e == pytest.approx(p.lam, abs=1e-9)
        assert p.d >= fig1.d_min() - 1e-9
    p, q = curve.points[-2], curve.points[-1]
    assert curve.exact_until == pytest.approx((p.lam - q.lam) / (p.eta - q.eta))


def test_sweep_warm_start_equals_cold(fig1):
    curve = sweep_eta(fig1, [3.8, 2.0, 1.0, 0.6])
    for p in curve.points:
        cold = policy_iteration(fig1, p.eta)
        assert cold.lam == pytest.approx(p.lam, abs=1e-9)
        assert cold.delta_e == pytest.approx(p.delta_e, abs=1e-9)


def test_warm_start_matches_cold_solve(fig1):
    for K in (4, 7):
        for start_K in (2, K):
            start = policy_iteration(fig1, 2.0, start_K)
            warm = policy_iteration(fig1, 0.9, K, start=start)
            cold = policy_iteration(fig1, 0.9, K)
            assert warm.lam == pytest.approx(cold.lam, abs=1e-9)
            assert warm.b1 == cold.b1
            for a, b in zip(warm.actions, cold.actions, strict=True):
                assert np.array_equal(a, b)


def test_warm_start_validated(fig1):
    start = policy_iteration(fig1, 1.0, 5)
    with pytest.raises(ValueError, match="start policy depth 5 exceeds K=4"):
        policy_iteration(fig1, 0.9, 4, start=start)
    other = Model(ImportanceDist((1.0, 2.0), (0.5, 0.5)), Geometric(0.2))
    with pytest.raises(ValueError, match="start policy values"):
        policy_iteration(other, 0.9, 5, start=start)


def test_sweep_validation_and_failures(fig1):
    with pytest.raises(ValueError):
        sweep_eta(fig1, [])
    with pytest.raises(ValueError):
        sweep_eta(fig1, [1.0, 1.0])
    with pytest.raises(ValueError):
        sweep_eta(fig1, [1.0, -0.5])
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            sweep_eta(fig1, [bad])
    # a depth beyond the storage cap, or one too large to count, is recorded, not raised
    curve = sweep_eta(fig1, [1.0, 1e-7, 1e-320])
    assert len(curve.points) == 1
    assert [eta for eta, _ in curve.failures] == [1e-7, 1e-320]
    assert "eta=1e-320" in curve.failures[1][1]


@pytest.mark.parametrize("eta", [0.0, -1.0, math.nan, math.inf, -math.inf])
def test_solvers_reject_bad_eta(fig1, eta):
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        policy_iteration(fig1, eta)
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        policy_iteration(fig1, eta, 3)
    with pytest.raises(ValueError, match="eta must be finite and positive"):
        generic_policy_iteration(fig1, eta, 2)


def test_sweep_csv_contracts(fig1, tmp_path):
    import io

    curve = sweep_eta(fig1, [3.8, 1.9, 1.0])
    buf = io.StringIO()
    curve.write_points_csv(buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "eta,lambda,delta_e,d,K,b1_size,iters"
    assert len(lines) == 4
    buf2 = io.StringIO()
    curve.write_converse_csv(buf2)
    assert buf2.getvalue().splitlines()[0] == "eta,intercept"
    # row-wise identity between the two files
    for row in lines[1:]:
        eta, lam, de, d = (float(x) for x in row.split(",")[:4])
        assert d + eta * de == pytest.approx(lam, abs=1e-9)


def test_random_models_efficient_vs_generic():
    rng = np.random.default_rng(2024)
    for _ in range(6):
        m = int(rng.integers(2, 4))
        vals = tuple(float(x) for x in np.sort(rng.uniform(0.5, 25.0, size=m)))
        pr = rng.uniform(0.2, 1.0, size=m)
        pr = tuple(float(x) for x in pr / pr.sum())
        if rng.random() < 0.5:
            z = Geometric(float(rng.uniform(0.15, 0.9)))
        else:
            w = rng.uniform(0.1, 1.0, size=int(rng.integers(1, 5)))
            z = FinitePMF(tuple(float(x) for x in w / w.sum()))
        model = Model(ImportanceDist(vals, pr), z)
        for K in (1, 2, 3):
            eta = float(rng.uniform(0.3, 2.5))
            eff = policy_iteration(model, eta, K)
            gen = generic_policy_iteration(model, eta, K)
            assert eff.lam == pytest.approx(gen.lam, abs=1e-9)
            for l in range(1, K + 1):
                assert np.array_equal(eff.actions[l], gen.actions[l])
