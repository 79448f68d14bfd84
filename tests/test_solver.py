import dataclasses
import gc
import hashlib
import itertools
import json
import math
import tracemalloc

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
    one_step_cost,
    policy_improve,
    policy_iteration,
    sweep_eta,
)
from agedist import solver
from agedist.solver import (
    PolicySolution,
    _chain_actions,
    _evaluate_full,
    average_cost_solve,
)
from agedist.statetree import buffer_digits
from agedist.strategies import window_table
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


def _level_reductions(tree, h_levels, L):
    """``red[z]`` is E[h(x || V^z)] over the level-(L - z) nodes x, for z = 0..L, summed out one newest digit at a time."""
    red = [h_levels[L]]
    for _ in range(L):
        red.append(red[-1].reshape(-1, tree.m) @ tree.probs)
    return red


def kappa_update(model, tree, h_levels):
    """Whole-level reference for the kappa arrays of levels 0..K-1."""
    K = tree.K
    mu = model.mu
    eh = _level_reductions(tree, h_levels, K)
    kappa = [np.empty(0)] * K
    base = model.z_tail(K) * float(eh[K][0])
    base += model.mean_importance / mu * model.z_excess_mean(K)
    kappa[0] = np.array([base])
    for l in range(1, K):
        kap = model.z_pmf(K - l) * eh[K - l].reshape(tree.m, -1) + kappa[l - 1]
        kap += model.z_tail(K - l + 1) * tree.values[:, None] / mu
        kappa[l] = kap.ravel()
    return kappa


def reference_parts(model, tree, h_levels):
    """Whole-level reference for the parts of C_h(b, 1): kappa, then every level L < K reduced at once."""
    parts = [np.empty(0)] + [k.copy() for k in kappa_update(model, tree, h_levels)]
    for L in range(1, tree.K):
        for z, red in enumerate(_level_reductions(tree, h_levels, L)[1:], start=1):
            parts[L - z + 1] += model.z_pmf(z) * red
    return parts


def solver_parts(model, tree, h_levels):
    """The solver's parts of C_h(b, 1) from whole h levels, as the step-wise improvement reads them, level by level.

    Only for an h departing from the chain rule at every node below level 1: its sweep visits every node."""
    keys, parts, _ = solver._h_parts(model, tree, h_levels, 0.0, 1.0)
    assert np.array_equal(keys, np.arange(tree.level_offset[tree.K]))
    return [np.empty(0)] + np.split(parts, tree.level_offset[1 : tree.K])


def test_kappa_matches_direct_c1(fig1):
    # the chain identity on an h that departs from the chain rule everywhere, up to six levels deep,
    # against c_value's block reads
    three = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    gapped = Model(ImportanceDist((1.0, 4.0, 9.0), (0.3, 0.4, 0.3)), FinitePMF((0.4, 0.0, 0.6)))
    cases = [(fig1, K) for K in (2, 3, 5, 6)] + [(three, K) for K in (2, 4, 6)] + [(gapped, 6)]
    for model, K in cases:
        tree = StateTree(model, K)
        h = random_h(tree, 100 + K)
        parts = solver_parts(model, tree, h)
        for l in range(1, K + 1):
            for i in range(tree.level_size[l]):
                c1 = 1.0 * (l - 1) + parts[l][i % tree.level_size[l - 1]]
                direct = c_value(model, tree, h, tree.entries_of(l, i), 1, 1.0)
                assert c1 == pytest.approx(direct, abs=1e-10)


def whole_level_parts(model, tree, lev, idx, pi, D, s1, law):
    """Reference for the sweep's parts: the chain identity over every node, ``parts[l]`` over level l - 1.

    One broadcast of the parent level over the oldest digit and one scatter of the level's
    corrections in state order, so every part is the float the sweep computes at its candidates.
    """
    K, m, (pmf, tail) = tree.K, tree.m, law
    ev, b1mu = model.mean_importance / model.mu, (tree.values / model.mu)[:, None]
    inc = np.bincount(lev, weights=pi[np.arange(len(idx)), lev - 1] * D, minlength=K + 1)
    S = list(itertools.accumulate(inc[2:], lambda s, i: s + ev + i, initial=s1))  # S_1..S_K
    parts = [np.empty(0)] + [np.empty(n) for n in tree.level_size[:K]]
    parts[1][0] = tail[K] * S[-1] + ev * model.z_excess_mean(K) + np.dot(pmf[1:K], S[:-1])
    deeper = np.searchsorted(lev, np.arange(K), "right")  # deeper[j]: the first state below level j
    for j in range(1, K):
        np.add(parts[j], b1mu, out=parts[j + 1].reshape(m, -1))
        r = np.arange(deeper[j], len(idx))
        z = lev[r] - j
        np.add.at(parts[j + 1], idx[r] // m**z, pmf[z] * pi[r, z - 1] * D[r])
    return parts


def whole_level_improve(model, tree, parts, lam, eta):
    """Reference for the sweep's improvement: every node of every level tested; returns B1 as ``(lev, idx)``."""
    K, m = tree.K, tree.m
    reach, b1mu = model.reach_bounds(eta), tree.values / model.mu
    best = np.full(m, lam)  # C_h(b, s(b)) of the previous level
    found = [(1, np.zeros(0, dtype=np.int64))]
    for l in range(2, K + 1):
        n = tree.level_size[l - 1]
        c1 = parts[l] + eta * (l - 1)
        new = np.empty((m, n))
        for d in range(m):
            new[d] = best + b1mu[d]
            if l <= reach[d]:
                take = c1 < new[d] - solver.TIE_TOL
                found.append((l, np.flatnonzero(take) + d * n))
                new[d][take] = c1[take]
        best = new.ravel()
    lev = np.repeat([l for l, _ in found], [len(i) for _, i in found])
    return lev, np.concatenate([i for _, i in found])


def newest_pi(tree, idx):
    """``pi[y, t - 1]``, the probability of the newest t digits of each level index y in ``idx``."""
    return np.cumprod(tree.probs[idx[:, None] // tree.m ** np.arange(tree.K) % tree.m], axis=1)


def sweep_against_whole_levels(model, tree, lev, idx, D, s1, lam, eta):
    """``_sweep`` of D at ``(lev, idx)``, checked against the whole-level references; returns it."""
    sv, pi = solver._Solve(model, tree, eta), newest_pi(tree, idx)
    keys, parts, b1 = sweep = solver._sweep(sv, lev, idx, solver._pairs(sv, lev, idx), D, s1, lam)
    whole = whole_level_parts(model, tree, lev, idx, pi, D, s1, sv.law)
    for got, want in zip(b1, whole_level_improve(model, tree, whole, lam, eta), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.all(np.diff(keys) > 0) and keys[0] == 0
    assert parts.tobytes() == np.concatenate(whole[1:])[keys].tobytes()
    return sweep


def _solved_case(case, fig1, three_level):
    """(model, solution) of a named solved-table case."""
    three = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    if case == "three-K11":
        return three_level
    if case == "three-K7":
        return three, policy_iteration(three, 0.7, 7)
    if case == "gapped":
        model = Model(ImportanceDist((1.0, 4.0, 9.0), (0.3, 0.4, 0.3)), FinitePMF((0.4, 0.0, 0.6)))
        return model, policy_iteration(model, 0.4, 7)
    if case == "one-value":
        model = Model(ImportanceDist((3.0,), (1.0,)), Geometric(0.25))
        return model, policy_iteration(model, 1.0, 5)
    K = int(case.split("K")[1])
    return fig1, policy_iteration(fig1, 0.2 if K == 19 else 0.5, K)


SOLVED_CASES = ["fig1-K1", "fig1-K2", "fig1-K8", "fig1-K10", "fig1-K19", "three-K7", "three-K11", "gapped", "one-value"]


@pytest.mark.parametrize("case", SOLVED_CASES + ["S1-K8"])
def test_sweep_matches_whole_levels_on_solved_tables(case, fig1, three_level):
    # the solve's sweep from its own u: the same B1 and bitwise the same parts at its candidates.  S1 is
    # no fixed point, so some of its B1 parents are candidates only because the residual gate reads them
    if case == "S1-K8":
        model, eta, actions = fig1, 1.0, window_table(fig1, "S1", 8).actions
    else:
        model, sol = _solved_case(case, fig1, three_level)
        eta, actions = sol.eta, sol.actions
    tree = StateTree(model, len(actions) - 1)
    lev, idx = solver._b1_list(tree, actions)
    sv = solver._Solve(model, tree, eta)
    P, cost, (sys_par, edges) = solver._assemble(sv, lev, idx, solver._pairs(sv, lev, idx))
    lam, _, _, u = solver.age_distortion_solve(P, cost, eta)
    D = u[1:] - np.cumsum(np.column_stack([u[sys_par], edges]), axis=1)[:, -1]
    keys, parts, b1 = sweep_against_whole_levels(model, tree, lev, idx, D, 0.0, lam, eta)
    got = solver._evaluate(sv, lev, idx)[4]
    assert got[0].tobytes() == keys.tobytes() and got[1].tobytes() == parts.tobytes()
    converged = np.array_equal(b1[0], lev) and np.array_equal(b1[1], idx)
    assert converged == (case != "S1-K8")  # a solved table is its own improvement


@pytest.mark.parametrize("support", [0.05, 0.5, 1.0])
def test_sweep_matches_whole_levels_on_random_departures(support, fig1):
    # D on a seeded random share of the nodes below level 1, lambda near the level-2 C-values so that
    # states take at every level: the pruning keeps every take, and the parts at the candidates are
    # bitwise the whole-level ones
    three = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    gapped = Model(ImportanceDist((1.0, 4.0, 9.0), (0.3, 0.4, 0.3)), FinitePMF((0.4, 0.0, 0.6)))
    rng = np.random.default_rng(int(support * 100))
    for model, K in [(fig1, K) for K in (2, 5, 8)] + [(three, K) for K in (3, 6)] + [(gapped, 5)]:
        tree = StateTree(model, K)
        nodes = tree.level_offset[K + 1] - tree.level_offset[2]
        at = np.sort(rng.choice(nodes, size=max(1, round(support * nodes)), replace=False)) + tree.level_offset[2]
        lev = np.searchsorted(tree.level_offset, at, "right") - 1
        idx = at - np.asarray(tree.level_offset)[lev]
        pi, law = newest_pi(tree, idx), solver._Solve(model, tree, 1.0).law
        for eta in (0.3, 1.5):
            D, s1 = rng.normal(size=len(idx)), rng.normal()
            lam = whole_level_parts(model, tree, lev, idx, pi, D, s1, law)[1][0] + eta + rng.normal()
            keys, _, (b1_lev, _) = sweep_against_whole_levels(model, tree, lev, idx, D, s1, lam, eta)
            assert len(b1_lev) > 0 and (K == 2 or b1_lev.max() > 2)
            assert len(keys) < tree.level_offset[K] or support > 0.05 or K < 5


def _streamed_and_reference_parts(model, sol):
    """A solve's parts of a solved table's h at its candidates, and the parts reduced from whole h levels there."""
    tree = StateTree(model, sol.K)
    lev, idx = solver._b1_list(tree, sol.actions)
    u, (keys, parts, _) = solver._evaluate(solver._Solve(model, tree, sol.eta), lev, idx)[3:]
    b1mu = (tree.values / model.mu)[:, None]
    h = [np.zeros(1), np.zeros(tree.m)]
    for l in range(2, tree.K + 1):  # the chain identity, a whole level at a time
        h.append((h[l - 1] + b1mu).ravel())
        h[l][idx[lev == l]] = u[1:][lev == l]
    return parts, np.concatenate(reference_parts(model, tree, h)[1:])[keys]


@pytest.mark.parametrize("case", ["fig1-K1", "fig1-K2", "fig1-K8", "fig1-K19", "three-K11", "gapped", "one-value"])
def test_streamed_parts_bitwise_equal_whole_level_reference(case, fig1, three_level):
    # the chain identity adds in another order than the reductions, so the parts agree to rounding;
    # a correction scattered after the whole propagation, or weighted by the wrong gap length, differs
    model, sol = _solved_case(case, fig1, three_level)
    if case == "gapped":
        assert sol.b1_size > 0 and model.z_pmf(2) == 0.0
    streamed, want = _streamed_and_reference_parts(model, sol)
    np.testing.assert_array_less(np.abs(streamed - want), 1e-12 * np.maximum(1.0, np.abs(want)))


def _traced_peak(solve):
    tracemalloc.start()
    try:
        sol = solve()
        return sol, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_deep_solve_traced_peak(fig1):
    # the sweep holds no per-node buffer: the peak is the final uint8 table, 1.05 MB at K = 19
    sol, peak = _traced_peak(lambda: policy_iteration(fig1, 0.2))
    assert sol.K == 19
    assert peak < 1.5e6, f"traced peak {peak / 1e6:.1f} MB"


def test_deepest_solve_traced_peak(fig1):
    # fig1's last exact point at the dense cap: a 16.8 MB table
    sol, peak = _traced_peak(lambda: policy_iteration(fig1, 0.17))
    assert sol.K == 23
    assert peak < 20e6, f"traced peak {peak / 1e6:.1f} MB"


def test_level_reductions(fig1):
    tree = StateTree(fig1, 3)
    h = [np.zeros(n) for n in tree.level_size]
    # z = 0 is the field itself
    h[2][:] = np.arange(4)
    assert _level_reductions(tree, h, 2)[0][3] == 3.0
    # constant field has constant expectation
    for arr in h:
        arr[:] = 2.5
    assert _level_reductions(tree, h, 3)[2][0] == pytest.approx(2.5, abs=1e-12)
    # weighted average of the two children: 0.7*10 + 0.3*20
    h[2][:] = 0.0
    node = tree.locate((20.0,))
    h[2][node[1] * 2 + 0] = 10.0
    h[2][node[1] * 2 + 1] = 20.0
    got = _level_reductions(tree, h, 2)[1][node[1]]
    assert got == pytest.approx(13.0, abs=1e-12)


def test_level_reductions_are_linear_block_expectations(fig1):
    three = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    for model in (fig1, three):
        tree = StateTree(model, 4)
        h = random_h(tree, 7)
        doubled = [2.0 * arr for arr in h]
        for L in range(5):
            red, two = _level_reductions(tree, h, L), _level_reductions(tree, doubled, L)
            assert len(red) == L + 1
            for z in range(L + 1):
                # row x of the (m^(L-z), m^z) view is the block x || V^z
                block = h[L].reshape(tree.level_size[L - z], -1) @ tree.wprob[z]
                np.testing.assert_allclose(red[z], block, rtol=0, atol=1e-12)
                np.testing.assert_allclose(two[z], 2.0 * red[z], rtol=0, atol=1e-12)


def test_kappa_root_value(fig1):
    tree = StateTree(fig1, 1)
    h0 = [np.zeros(n) for n in tree.level_size]
    kappa = kappa_update(fig1, tree, h0)
    assert kappa[0][0] == pytest.approx(5.36, abs=1e-12)
    assert solver_parts(fig1, tree, h0)[1][0] == kappa[0][0]


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


def test_average_cost_solve_matches_identity_minus_p():
    # A is built as 0 - P with 1 added on its diagonal: bit for bit I - P
    rng = np.random.default_rng(8)
    P = rng.uniform(size=(7, 7)) * (rng.random((7, 7)) < 0.5)
    P[:, 1] += 0.1
    P /= P.sum(axis=1, keepdims=True)
    cost = rng.normal(size=(7, 2))
    A = np.eye(7) - P
    A[:, 0] = 1.0
    want = np.linalg.solve(A, cost)
    lam, h = average_cost_solve(P, cost)
    assert lam.tobytes() == want[0].tobytes()
    assert h[1:].tobytes() == want[1:].tobytes()


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
            got_lam, got_h = evaluate_policy(model, tree, actions, eta)
            got_delta_e, got_d = evaluate_components(model, tree, actions)
            lam, delta_e, d, h = _evaluate_full(model, tree, actions, eta)
            assert got_lam == pytest.approx(lam, abs=1e-10)
            assert got_delta_e == pytest.approx(delta_e, abs=1e-10)
            assert got_d == pytest.approx(d, abs=1e-10)
            for l in range(1, K + 1):
                np.testing.assert_allclose(got_h[l], h[l], atol=1e-9)


def _chain_bookkeeping(model, tree, actions):
    """Per-node edge costs and B1 ancestors of a chain policy, by the parent recursion.

    ``cost[l][i]`` is the edge cost b1/mu accumulated from the node up to its
    nearest B1 ancestor, ``po[l][i]`` that ancestor's position in ``b1`` (-1
    when the chain ends at a singleton), and ``b1`` lists the states of
    length >= 2 that send their oldest packet, level by level.
    """
    b1mu = (tree.values / model.mu)[:, None]
    cost = [np.zeros(n) for n in tree.level_size[:2]]
    po = [np.full(n, -1, dtype=np.int64) for n in tree.level_size[:2]]
    b1 = []
    for l in range(2, tree.K + 1):
        is_b1 = (np.asarray(actions[l]) == 1).reshape(tree.m, -1)
        cost.append(np.where(is_b1, 0.0, cost[l - 1] + b1mu).ravel())
        new = np.flatnonzero(is_b1)
        po.append(np.tile(po[l - 1], tree.m))
        po[l][new] = len(b1) + np.arange(len(new))
        b1.extend((l, int(j)) for j in new)
    return cost, po, b1


def _block_assembly(model, tree, actions):
    """Reference for ``solver._assemble``: the reduced system read from the trie blocks.

    Each row sends its oldest packet, so its next state depends only on its
    parent ``a``, of length ``p``: it lies in ``a || V^k`` at level ``p + k < K``
    with probability Pr(Z = k), or in the level-K block ``x || V^(K - q)`` of
    a suffix ``x`` of ``a`` of length ``q`` with probability Pr(Z = K - q)
    (Pr(Z >= K) for the empty suffix).  The level-K part is summed along the
    suffix chain once per suffix node; the other blocks are read per row.
    """
    K, m = tree.K, tree.m
    chain_cost, chain_po, b1 = _chain_bookkeeping(model, tree, actions)
    n = len(b1) + 1
    levels = np.array([1] + [l for l, _ in b1])
    index = np.array([0] + [i for _, i in b1])
    parents = index % m ** (levels - 1)

    def expect(level, anchors, k, w):
        """w * E over V^k of (one-hot system state, edge cost) at ``anchor || V^k``, per anchor."""
        if w == 0.0:
            return np.zeros((len(anchors), n)), np.zeros(len(anchors))
        cols = chain_po[level].reshape(-1, m**k)[anchors]
        cols += (np.arange(len(anchors)) * n + 1)[:, None]
        wts = np.tile(tree.wprob[k], len(anchors))
        trans = np.bincount(cols.ravel(), weights=wts, minlength=len(anchors) * n).reshape(-1, n)
        trans *= w
        return trans, w * (chain_cost[level].reshape(-1, m**k)[anchors] @ tree.wprob[k])

    suffixes = []  # per length p < K: every length-p suffix of a parent, sorted
    deeper = np.empty(0, dtype=np.int64)
    for p in range(K - 1, -1, -1):
        deeper = np.unique(np.concatenate([parents[levels == p + 1], deeper % m**p]))
        suffixes.insert(0, deeper)
    P = np.zeros((n, n))
    cost = np.zeros((n, 2))
    cost[:, 0] = levels - 1
    for p in range(K):
        if not len(suffixes[p]):
            break
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
        digits = buffer_digits(p + 1, index[rows], m)
        P[rows] = suffix_trans[own]
        cost[rows, 1] = suffix_edge[own] + solver._forgetting_terms(model, tree, digits, p + 1, 1)
        for k in range(1, K - p):
            w = model.z_pmf(k)
            if w != 0.0:
                trans, edge = expect(p + k, parents[rows], k, w)
                P[rows] += trans
                cost[rows, 1] += edge
    return P, cost


def test_assembly_matches_block_reference(fig1):
    # random "send oldest" masks, so B1 prefixes meet parent suffixes in
    # patterns the improvement step never produces; the FinitePMF gap law has
    # a zero-probability gap
    three = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    gapped = Model(ImportanceDist((1.0, 4.0, 9.0), (0.3, 0.4, 0.3)), FinitePMF((0.4, 0.0, 0.6)))
    rng = np.random.default_rng(13)
    for model in (fig1, three, gapped):
        for K in range(1, 9):
            tree = StateTree(model, K)
            for density in (0.1, 0.6):
                density = min(density, 150 / tree.node_count())
                takes = [None, None] + [rng.random(n) < density for n in tree.level_size[2:]]
                actions = _chain_actions(tree, takes)
                sv, (lev, idx) = solver._Solve(model, tree, 1.0), solver._b1_list(tree, actions)
                P, cost, _ = solver._assemble(sv, lev, idx, solver._pairs(sv, lev, idx))
                want_P, want_cost = _block_assembly(model, tree, actions)
                np.testing.assert_allclose(P, want_P, rtol=0, atol=1e-12)
                np.testing.assert_allclose(cost, want_cost, rtol=0, atol=1e-12)


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


# (lambda, delta_e, d as float.hex, K, |B1|, iters) of every point of the warm-started fig1 grid of the
# tradeoff benchmark, 3.8 down to 0.2, recorded at commit 35027ac, whose sweep still built each trie
# level's substrings and corrections inside its level loop; the batched build must reproduce every bit.
FIG1_GRID_PINNED = [
    ("0x1.570a3d70a3d71p+2", "0x0.0p+0", "0x1.570a3d70a3d71p+2", 1, 0, 1),
    ("0x1.522162a2be75fp+2", "0x1.5810624dd2f1bp-3", "0x1.2e2eb1c432ca6p+2", 2, 1, 2),
    ("0x1.4dcf8efcb08c2p+2", "0x1.5810624dd2f1bp-3", "0x1.2e2eb1c432ca6p+2", 2, 1, 1),
    ("0x1.4a029c98e7e6fp+2", "0x1.5810624dd2f1bp-3", "0x1.2e2eb1c432ca6p+2", 2, 1, 1),
    ("0x1.46aa93d620442p+2", "0x1.5810624dd2f1bp-3", "0x1.2e2eb1c432ca6p+2", 2, 1, 1),
    ("0x1.43b9684213b42p+2", "0x1.5810624dd2f1bp-3", "0x1.2e2eb1c432ca6p+2", 2, 1, 1),
    ("0x1.3f7bafc9c427bp+2", "0x1.6cb5350092cd0p-2", "0x1.174d594f26aecp+2", 3, 2, 2),
    ("0x1.3aa7a52c557bfp+2", "0x1.6cb5350092cd0p-2", "0x1.174d594f26aecp+2", 3, 2, 1),
    ("0x1.36682175de675p+2", "0x1.6cb5350092cd0p-2", "0x1.174d594f26aecp+2", 3, 2, 1),
    ("0x1.32003c7ce36fcp+2", "0x1.07471c1e43b7fp-1", "0x1.0a7d3c40cdfb7p+2", 4, 3, 2),
    ("0x1.2d40c882872e2p+2", "0x1.07471c1e43b7fp-1", "0x1.0a7d3c40cdfb7p+2", 4, 3, 1),
    ("0x1.28eb90ae55364p+2", "0x1.43b36f3ee350ep-1", "0x1.03505f2e87d48p+2", 5, 4, 2),
    ("0x1.2466ba8ee3a17p+2", "0x1.43b36f3ee350ep-1", "0x1.03505f2e87d48p+2", 5, 4, 1),
    ("0x1.203609f0ad1f8p+2", "0x1.6dff4308eca25p-1", "0x1.fe9774d7f44a3p+1", 6, 5, 2),
    ("0x1.1b9b07e1b3a0cp+2", "0x1.cad01cd065882p-1", "0x1.ee9a48a8bdfb0p+1", 7, 7, 2),
    ("0x1.170192e616654p+2", "0x1.f475b851335e8p-1", "0x1.e8547404919aap+1", 7, 8, 2),
    ("0x1.1294730686db3p+2", "0x1.1235c4f500bf2p+0", "0x1.e1f9a94825a8fp+1", 8, 10, 2),
    ("0x1.0e2824dde4525p+2", "0x1.4580e4d8b8cc7p+0", "0x1.d625189174e6cp+1", 9, 13, 2),
    ("0x1.09b8beaef1526p+2", "0x1.69b32ba3a452ep+0", "0x1.ced75119dab15p+1", 11, 17, 2),
    ("0x1.055b06640b994p+2", "0x1.9fd335a3a367cp+0", "0x1.c551fa48d19e3p+1", 12, 22, 2),
    ("0x1.00ff4ce1ec4e8p+2", "0x1.c4a13c9676f20p+0", "0x1.bf89c00831164p+1", 13, 27, 2),
    ("0x1.f96eb589b5c8cp+1", "0x1.fbca60b7e421ap+0", "0x1.b7d6024868521p+1", 15, 36, 2),
    ("0x1.f104ff1eab327p+1", "0x1.213cd72f27dd7p+1", "0x1.af457f864715cp+1", 17, 48, 2),
    ("0x1.e8b8dc32f263ep+1", "0x1.42b881d7fc54dp+1", "0x1.a82d8f07bfec8p+1", 19, 63, 3),
]


def test_fig1_sweep_grid_end_pinned(fig1):
    start = None
    for eta, want in zip(np.geomspace(3.8, 0.2, 24), FIG1_GRID_PINNED, strict=True):
        K = fig1.buffer_bound(eta) if start is None else max(fig1.buffer_bound(eta), start.K)
        start = policy_iteration(fig1, float(eta), K, start=start)
        got = (start.lam.hex(), start.delta_e.hex(), start.d.hex(), start.K, start.b1_size, start.iters)
        assert got == want, eta
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
    actions, (lev, idx) = policy_improve(model, tree, h, lam, sol.eta)
    assert [(a.dtype, a.tobytes()) for a in actions] == [
        (a.dtype, a.tobytes()) for a in sol.actions
    ]
    # its B1 arrays are level-major with ascending indices, as the assembly's search needs
    assert len(idx) == sol.b1_size
    assert np.all(np.diff(lev * tree.m**tree.K + idx) > 0)
    assert all(sol.actions[l][i] == 1 for l, i in zip(lev, idx))


def test_efficient_route_reads_no_block_weights(fig1):
    # evaluation, components and improvement work from the B1 list and one
    # reduction per trie level; the block weights are never built
    sol = policy_iteration(fig1, 0.3)
    tree = StateTree(fig1, sol.K)
    lam, h = evaluate_policy(fig1, tree, sol.actions, sol.eta)
    evaluate_components(fig1, tree)
    policy_improve(fig1, tree, h, lam, sol.eta)
    assert "wprob" not in vars(tree)


@pytest.mark.parametrize("which", ["first", "last-of-deepest"])
def test_residual_gate_rejects_perturbed_h(monkeypatch, which):
    # shift h at one B1 state, the first one or the last of the 16 on the deepest
    # level, in the solved u that the parts are built from: the residual must fire
    model = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    sol = policy_iteration(model, 0.6)
    real = solver.age_distortion_solve

    def shifted(P, cost, eta):
        lam, delta_e, d, u = real(P, cost, eta)
        if len(u) > 1:
            u[1 if which == "first" else len(u) - 1] += 1e-6
        return lam, delta_e, d, u

    monkeypatch.setattr(solver, "age_distortion_solve", shifted)
    with pytest.raises(RuntimeError, match="residual"):
        policy_iteration(model, 0.6)
    with pytest.raises(RuntimeError, match="residual"):
        evaluate_policy(model, StateTree(model, sol.K), sol.actions, 0.6)
    with pytest.raises(RuntimeError, match="residual"):
        evaluate_components(model, StateTree(model, sol.K), sol.actions)


def test_b1_cap_rejects_before_allocation(fig1, monkeypatch):
    # S1 at K=14 has |B1| = 16382, 2.1 GB per dense copy: the cap is shown here lowered
    assert 8190 <= solver.B1_CAP < 16382  # S1 at K=13 (stopped by the correction cap) and three-level at K=14 pass
    table = window_table(fig1, "S1", 8)
    n = sum(int(np.count_nonzero(a == 1)) for a in table.actions[2:])
    tree = StateTree(fig1, 8)
    monkeypatch.setattr(solver, "B1_CAP", n)
    evaluate_components(fig1, tree, table.actions)  # at the cap

    def assemble(*args):
        raise AssertionError("reduced system assembled over the cap")

    monkeypatch.setattr(solver, "B1_CAP", n - 1)
    monkeypatch.setattr(solver, "_assemble", assemble)
    for evaluate in (evaluate_components, lambda *args: evaluate_policy(*args, 1.0)):
        with pytest.raises(ValueError, match=rf"\|B1\|={n} states, over the cap of {n - 1}$"):
            evaluate(fig1, tree, table.actions)


def test_correction_cap_rejects_before_the_corrections(fig1, monkeypatch):
    # S1 has 16,683,006 suffix corrections at K=12 (1.7 GB traced) and 66,904,062 at K=13, about
    # 104 bytes each at the assembly's peak; fig1 values at p=1 solve through 22,864,708 at K=19.
    # K=12 and p=1 pass, K=13 is rejected: the cap is shown here lowered
    assert 22_864_708 <= solver.CORRECTION_CAP < 66_904_062
    table = window_table(fig1, "S1", 8)
    tree = StateTree(fig1, 8)
    n, sizes, real = 61_694, [], solver._ranges

    def ranges(counts):
        sizes.append(int(counts.sum()))
        return real(counts)

    monkeypatch.setattr(solver, "_ranges", ranges)
    monkeypatch.setattr(solver, "CORRECTION_CAP", n)
    evaluate_components(fig1, tree, table.actions)  # at the cap
    assert n in sizes  # the corrections were matched
    sizes.clear()
    monkeypatch.setattr(solver, "CORRECTION_CAP", n - 1)
    with pytest.raises(ValueError, match=rf"\|B1\|=\d+ states has {n} suffix corrections, over the cap of {n - 1}$"):
        evaluate_components(fig1, tree, table.actions)
    assert n not in sizes  # rejected before the match arrays


@pytest.mark.parametrize("case", ["fig1-K10", "three-K7"])
def test_deep_tables_against_dense_oracle(case, fig1):
    # solved tables deeper than the generic route reaches, evaluated over every state; the improvement
    # from the oracle's h, which departs from the chain rule by rounding at nearly every node, keeps them
    if case == "fig1-K10":
        model, eta, K = fig1, 0.5, 10
    else:
        model, eta, K = Model(ImportanceDist((1.0, 5.0, 20.0), (0.5, 0.3, 0.2)), Geometric(0.2)), 0.7, 7
    sol = policy_iteration(model, eta, K)
    tree = StateTree(model, K)
    lam, delta_e, d, h = _evaluate_full(model, tree, sol.actions, eta)
    assert (lam, delta_e, d) == pytest.approx((sol.lam, sol.delta_e, sol.d), rel=0, abs=1e-10)
    actions, _ = policy_improve(model, tree, h, lam, eta)
    for a, b in zip(actions, sol.actions, strict=True):
        assert np.array_equal(a, b)


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
    actions, (lev, idx) = policy_improve(fig1, tree, h, lam, eta)
    for l in range(1, K + 1):
        assert np.all(actions[l] == l)
    assert len(lev) == len(idx) == 0


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
    for eta in (0.7, 1.2):
        gen = generic_policy_iteration(fig1, eta, 4)
        assert property2_violations(fig1, gen) == []
        assert property1_violations(fig1, gen) == []


def test_property2_catches_off_chain_edit(fig1):
    # the properties read h from the dense oracle, not from the chain identity, so a table
    # edited off the chain rule at one state fails the parent recursion there
    sol = policy_iteration(fig1, 0.8)
    assert sol.K == 5 and property2_violations(fig1, sol) == []
    acts = [a.copy() for a in sol.actions]
    i = int(np.flatnonzero(acts[5] >= 2)[0])
    acts[5][i] -= 1
    bad = property2_violations(fig1, dataclasses.replace(sol, actions=acts))
    assert len(bad) == 1 and bad[0].startswith(f"level 5 state {i} gap ")


def test_solution_holds_only_its_table(fig1):
    policy_iteration(fig1, 0.3)  # warm-up: the model's cached sums
    tracemalloc.start(8)  # frames per allocation, for the failure message
    try:
        before = tracemalloc.take_snapshot()  # before the base reading, which so counts the snapshot
        gc.collect()
        base = tracemalloc.get_traced_memory()[0]
        sol = policy_iteration(fig1, 0.3)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
        after = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    table_bytes = sum(a.nbytes for a in sol.actions)
    growth = [
        f"{st.size_diff:+} B in {st.count_diff:+} blocks at\n" + "\n".join(st.traceback.format(4, True))
        for st in after.compare_to(before, "traceback")[:5]
    ]
    assert held < 1.5 * table_bytes, f"{held / table_bytes:.2f}x the action table; grew most at:\n" + "\n".join(growth)


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
    assert back.b1_size == sol.b1_size
    assert list(back.b1_states()) == list(sol.b1_states())
    other = Model(ImportanceDist((1.0, 2.0), (0.5, 0.5)), Geometric(0.2))
    with pytest.raises(ValueError):
        PolicySolution.from_json(str(path), other)


def test_policy_file_load_builds_no_bookkeeping(fig1, tmp_path, monkeypatch):
    # loading only checks the table; B1 is collected and the reduced system
    # built only for an evaluation
    sol = policy_iteration(fig1, 0.5)
    path = tmp_path / "pol.json"
    sol.to_json(str(path))

    def assemble(*args):
        raise AssertionError("B1 collected or reduced system assembled at load")

    monkeypatch.setattr(solver, "_assemble", assemble)
    monkeypatch.setattr(solver, "_b1_list", assemble)
    back = PolicySolution.from_json(str(path), fig1)
    assert back.b1_size == sol.b1_size
    for a, b in zip(back.actions, sol.actions, strict=True):
        assert np.array_equal(a, b)


def test_deep_policy_file_load_memory(fig1, tmp_path):
    # the S1 window table at K = 16 (65535 B1 states): loading must not
    # build a Python object per B1 state, so its traced peak stays within a
    # few copies of the decoded table
    table = window_table(fig1, "S1", 16)
    sol = PolicySolution(1.0, 16, 0.0, 0.0, 0.0, 0, table.values, table.actions)
    sol.model_hash = fig1.config_hash()
    path = tmp_path / "s1.json"
    sol.to_json(str(path))
    table_bytes = sum(a.nbytes for a in table.actions)
    tracemalloc.start()
    try:
        back = PolicySolution.from_json(str(path), fig1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.b1_size == sol.b1_size
    assert peak < 8 * table_bytes, f"{peak / table_bytes:.1f}x the decoded table"


def _rle_by_entry(arr):
    """The per-entry run-length encoder that the vectorised one replaced."""
    out = []
    for x in np.asarray(arr, dtype=np.int64):
        if out and out[-1][0] == int(x):
            out[-1][1] += 1
        else:
            out.append([int(x), 1])
    return out


def test_rle_encode_matches_per_entry_encoder(fig1):
    rng = np.random.default_rng(5)
    arrays = [rng.integers(1, 4, size=n, dtype=np.int32) for n in (1, 2, 7, 1000)]
    arrays += [np.full(n, 3, dtype=np.int32) for n in (1, 64)] + [np.zeros(0, dtype=np.int32)]
    arrays += list(policy_iteration(fig1, 0.2).actions)
    for arr in arrays:
        got = solver._rle_encode(arr)
        assert json.dumps(got) == json.dumps(_rle_by_entry(arr))


def _corrupt(doc):
    doc["actions"][3] = [[3, 7]]  # level 3 has 8 states


def _drop_levels(doc):
    doc["actions"] = doc["actions"][:2]


def _break_chain(doc):
    doc["actions"][3] = [[2, 8]]  # not 1 and not parent + 1 everywhere


def _swap_values(doc):
    doc["values"] = doc["values"][::-1]


def _nan_eta(doc):
    doc["eta"] = float("nan")


def _infinite_lambda(doc):
    doc["lambda"] = float("inf")


def _list_eta(doc):
    doc["eta"] = [1.0]


def _string_eta(doc):
    doc["eta"] = "1.0"


def _bool_lambda(doc):
    doc["lambda"] = False


def _bool_K(doc):
    doc["K"] = True  # with a two-level table that a K of 1 would accept
    doc["actions"] = doc["actions"][:2]


def _float_action(doc):
    doc["actions"][1] = [[1.4, 2]]


def _float_count(doc):
    doc["actions"][1] = [[1, 2.0]]


def _drop_K(doc):
    del doc["K"]


def _drop_model_hash(doc):
    del doc["model_hash"]


def _scalar_values(doc):
    doc["values"] = 5


def _scalar_actions(doc):
    doc["actions"] = 5


def _scalar_level(doc):
    doc["actions"] = [5]


def _list_K(doc):
    doc["K"] = [3]


def _huge_count(doc):
    doc["actions"][3] = [[1, 10**10]]  # checked against the 8 states before expanding


def _zero_count(doc):
    doc["actions"][3] = [[1, 0]] + doc["actions"][3]


def _huge_action(doc):
    doc["actions"][3] = [[2**40, 8]]


def _wrapping_action(doc):
    # (20, 1) may send its oldest packet: 257 would read as action 1 in uint8
    doc["actions"][2] = [[2, 2], [257, 1], [1, 1]]


def _root_action(doc):
    doc["actions"][0] = [[256, 1]]


@pytest.mark.parametrize(
    "mangle, match",
    [
        (_corrupt, "level 3 has shape"),
        (_drop_levels, "has 2 levels, expected 5"),
        (_break_chain, "level 3 is not chain-structured"),
        (_swap_values, "values"),
        (_nan_eta, "eta must be finite"),
        (_infinite_lambda, "lambda=inf"),
        (_list_eta, "non-numeric eta"),
        (_string_eta, "non-numeric eta in policy file: '1.0'"),
        (_bool_lambda, "non-numeric lambda"),
        (_bool_K, "K must be an integer >= 1, got True"),
        (_float_action, "level 1 has a non-integer run-length pair \\[1.4, 2\\]"),
        (_float_count, "level 1 has a non-integer run-length pair \\[1, 2.0\\]"),
        (_drop_K, "no K field"),
        (_drop_model_hash, "no model_hash field"),
        (_scalar_values, "values must be a list"),
        (_scalar_actions, "actions must be a list"),
        (_scalar_level, "actions must be a list"),
        (_list_K, "K must be an integer"),
        (_huge_count, "level 3 has shape \\(10000000000,\\)"),
        (_zero_count, "level 3 has a run-length count below 1"),
        (_huge_action, "level 3 has an action outside int32"),
        (_wrapping_action, "level 2 is not chain-structured at state \\(20.0, 1.0\\)"),
        (_root_action, "level 0: the root must hold the placeholder action 0"),
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


def test_policy_file_loads_near_its_table_size(fig1, tmp_path):
    # each level is decoded straight into the table's dtype and kept: the S1 K=20 table (2.1 MB) loaded at
    # an 11.8 MB traced peak when every level was decoded to int32 and then narrowed into a copy
    table = window_table(fig1, "S1", 20).actions
    path = tmp_path / "s1.json"
    PolicySolution(1.0, 20, 1.0, 1.0, 1.0, 0, tuple(fig1.v.values), table, fig1.config_hash()).to_json(str(path))
    tracemalloc.start()
    try:
        back = PolicySolution.from_json(str(path), fig1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    table_bytes = sum(a.nbytes for a in table)
    assert peak < 2.5 * table_bytes, f"{peak / table_bytes:.2f}x the table"
    assert [(a.dtype, a.tobytes()) for a in back.actions] == [(a.dtype, a.tobytes()) for a in table]


def test_tables_share_one_dtype(fig1, tmp_path):
    # every stored table keeps its actions in the smallest unsigned type that holds K, and a
    # narrowed table writes the same policy file
    sol = policy_iteration(fig1, 1.0)
    path = tmp_path / "pol.json"
    sol.to_json(str(path))
    back = PolicySolution.from_json(str(path), fig1)
    tree = StateTree(fig1, sol.K)
    evaluate_policy(fig1, tree, [a.astype(np.int64) for a in sol.actions], sol.eta)
    tables = [sol.actions, back.actions, tree.last_actions, window_table(fig1, "S1", sol.K).actions]
    tables.append(generic_policy_iteration(fig1, 1.0, sol.K).actions)
    assert {a.dtype for table in tables for a in table} == {np.dtype(np.uint8)}
    again = tmp_path / "again.json"
    back.to_json(str(again))
    assert again.read_bytes() == path.read_bytes()
    deep = policy_iteration(Model(ImportanceDist((3.0,), (1.0,)), Geometric(0.25)), 1.0, 300)
    assert deep.actions[300].dtype == np.uint16 and deep.actions[300].tolist() == [300]


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
            assert warm.b1_size == cold.b1_size
            for a, b in zip(warm.actions, cold.actions, strict=True):
                assert np.array_equal(a, b)


def test_warm_start_validated(fig1):
    start = policy_iteration(fig1, 1.0, 5)
    with pytest.raises(ValueError, match="start policy depth 5 exceeds K=4"):
        policy_iteration(fig1, 0.9, 4, start=start)
    other = Model(ImportanceDist((1.0, 2.0), (0.5, 0.5)), Geometric(0.2))
    with pytest.raises(ValueError, match="start policy values"):
        policy_iteration(other, 0.9, 5, start=start)
    # B1 is read off the start table as it is, so a table off the chain rule is rejected, not projected
    acts = [a.copy() for a in start.actions]
    acts[3][int(np.flatnonzero(acts[3] == 3)[0])] = 2
    with pytest.raises(ValueError, match="level 3 is not chain-structured"):
        policy_iteration(fig1, 0.9, 5, start=dataclasses.replace(start, actions=acts))


def test_sweep_validation_and_failures(fig1):
    for etas in ("31", b"31", bytearray(b"31")):  # iterated, "31" would solve eta = 3 and then eta = 1
        with pytest.raises(ValueError, match="^eta sequence must be a sequence of numbers, got "):
            sweep_eta(fig1, etas)
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
