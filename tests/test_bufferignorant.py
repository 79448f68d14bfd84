import io
import math

import numpy as np
import pytest

from agedist.bufferignorant import (
    BinarySource,
    BitCurvePoint,
    LengthActionPolicy,
    PlainThresholdBitPolicy,
    ThresholdPolicy,
    TunstallThresholdBitPolicy,
    bi_one_step_cost,
    bi_policy_iteration,
    oracle_chain_length,
    threshold_chain_matrix,
    threshold_point,
    tunstall_build,
    tunstall_threshold_point,
    write_bi_csv,
)
from agedist.sim import SimConfig, simulate_bit_policy
from agedist.strategies import stationary_distribution


@pytest.fixture(scope="module")
def src():
    # Figure 3 source: q = 0.3, v = 20, p = 0.2, N = 3
    return BinarySource(q=0.3, v=20.0, p=0.2, N=3)


def test_source_validation(fig1):
    with pytest.raises(ValueError):
        BinarySource(q=0.0, v=20.0, p=0.2, N=3)
    with pytest.raises(ValueError):
        BinarySource(q=0.3, v=0.5, p=0.2, N=3)
    with pytest.raises(ValueError):
        BinarySource(q=0.3, v=20.0, p=0.0, N=3)
    with pytest.raises(ValueError):
        BinarySource(q=0.3, v=20.0, p=0.2, N=0)
    got = BinarySource.from_model(fig1, 3)
    assert got.q == 0.3 and got.v == 20.0 and got.p == 0.2
    assert got.mu_v == pytest.approx(6.7)


def test_one_step_cost_examples(src):
    assert bi_one_step_cost(src, 1.0, src.N, src.N) == 0.0
    assert bi_one_step_cost(src, 1.0, 10, 7) == pytest.approx(6.7 * 0.2 * 4 + 3, abs=1e-12)
    assert bi_one_step_cost(src, 2.0, 5, 2) == pytest.approx(2.0 * 3, abs=1e-12)
    with pytest.raises(ValueError):
        bi_one_step_cost(src, 1.0, 3, 4)


def test_large_eta_sends_latest(src):
    sol = bi_policy_iteration(src, 50.0)
    assert sol.delta_e == pytest.approx(0.0, abs=1e-12)
    assert sol.d == pytest.approx(6.7 * 0.8**3, abs=1e-9)
    assert sol.matching_threshold() == 0


@pytest.mark.parametrize(
    "N,eta,pinned",
    [
        (3, 0.05, None),
        (3, 0.1, None),
        (3, 0.2, None),
        (3, 0.4, None),
        (8, 0.05, (271, 14, 80)),  # (L_cap, iterations, tau) of the earlier pair-by-pair sweep
    ],
    ids=["0.05", "0.1", "0.2", "0.4", "N8-0.05"],
)
def test_solved_structure_and_threshold(src, N, eta, pinned):
    source = BinarySource(q=src.q, v=src.v, p=src.p, N=N)
    sol = bi_policy_iteration(source, eta)
    for l in range(2, sol.L_cap + 1):
        assert sol.actions[l] in (N, sol.actions[l - 1] + 1)
    tau = sol.matching_threshold()
    assert tau is not None  # geometric Z: single-threshold empirically optimal
    if pinned is not None:
        assert (sol.L_cap, sol.iters, tau) == pinned
    pt = threshold_point(source, tau)
    assert sol.delta_e == pytest.approx(pt.delta_e, abs=1e-6)
    assert sol.d == pytest.approx(pt.d, abs=1e-6)


def test_state_cap_rejected_before_solving(src):
    # N = 3, eta = 1e-4: L_cap = 40231, 12.9 GB per dense copy
    with pytest.raises(ValueError, match=r"eta=0\.0001, N=3 needs L_cap=40231 .* cap of 4096"):
        bi_policy_iteration(src, 1e-4)
    # an eta so small that the cap is not a finite number
    with pytest.raises(ValueError, match=r"eta=1e-320, N=3 needs L_cap=inf .* cap of 4096"):
        bi_policy_iteration(src, 1e-320)
    for bad in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="eta must be finite and positive"):
            bi_policy_iteration(src, bad)


def test_threshold_tau0(src):
    pt = threshold_point(src, 0)
    assert pt.delta_e == 0.0
    assert pt.d == pytest.approx(6.7 * 0.512, abs=1e-12)


@pytest.mark.parametrize("tau", list(range(0, 13)))
def test_threshold_pi_against_chain_solve(src, tau):
    pt = threshold_point(src, tau)
    assert pt.pi_sum() == pytest.approx(1.0, abs=1e-10)
    L = oracle_chain_length(src, tau)
    P = threshold_chain_matrix(src, tau, L)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    num = stationary_distribution(P)
    worst = max(abs(pt.pi_of(l) - num[l - 1]) for l in range(1, L - 2))
    assert worst < 1e-9


@pytest.mark.parametrize("tau,n", [(3, 5), (8, 2), (30, 8), (12, 4)])
def test_threshold_pi_sums_other_shapes(tau, n):
    src = BinarySource(q=0.4, v=8.0, p=0.35, N=n)
    assert threshold_point(src, tau).pi_sum() == pytest.approx(1.0, abs=1e-10)


def test_threshold_point_matches_simulation(src):
    for tau in (2, 6):
        pt = threshold_point(src, tau)
        res = simulate_bit_policy(
            SimConfig(horizon=400_000, seed=tau), src, PlainThresholdBitPolicy(src, tau)
        )
        assert abs(res.delta_e - pt.delta_e) < 4 * res.se_delta
        assert abs(res.d - pt.d) < 4 * res.se_d


def test_bi_lambda_matches_simulation(src):
    sol = bi_policy_iteration(src, 0.1)
    res = simulate_bit_policy(SimConfig(horizon=400_000, seed=11), src, sol.policy())
    gap = abs(res.d + 0.1 * res.delta_e - sol.lam)
    assert gap < 4 * res.combined_se(0.1)


# ---------------------------------------------------------------------------
# Tunstall
# ---------------------------------------------------------------------------


def test_tunstall_examples():
    d = tunstall_build(0.5, 4)
    assert d.leaves == ("00", "01", "10", "11")
    assert d.expected_parse_length == pytest.approx(2.0)
    d2 = tunstall_build(0.3, 4)  # Pr(0) = 0.7
    assert d2.leaves == ("000", "001", "01", "1")
    assert d2.expected_parse_length == pytest.approx(2.19, abs=1e-12)
    with pytest.raises(ValueError):
        tunstall_build(0.5, 1)
    with pytest.raises(ValueError):
        tunstall_build(1.0, 4)


@pytest.mark.parametrize("m_exp", [1, 2, 3, 4, 6])
def test_tunstall_kraft_and_floor(m_exp):
    for q in (0.1, 0.3, 0.5, 0.77):
        d = tunstall_build(q, 2**m_exp)
        assert d.kraft_sum() == pytest.approx(1.0, abs=1e-12)
        assert d.expected_parse_length >= m_exp - 1e-12
        assert abs(sum(d.probs) - 1.0) < 1e-12


def _all_complete_trees(n_leaves):
    """Every complete binary tree with the given leaf count, as leaf-path lists."""
    if n_leaves == 1:
        return [[""]]
    out = []
    for left in range(1, n_leaves):
        for lt in _all_complete_trees(left):
            for rt in _all_complete_trees(n_leaves - left):
                out.append(["0" + w for w in lt] + ["1" + w for w in rt])
    return out


@pytest.mark.parametrize("M", [2, 3, 5, 8])
def test_tunstall_maximizes_expected_parse_length(M):
    rng = np.random.default_rng(M)
    trees = _all_complete_trees(M)
    for _ in range(10):
        q = float(rng.uniform(0.05, 0.95))
        built = tunstall_build(q, M).expected_parse_length

        def expected_len(leaves):
            return sum(
                len(w) * math.prod(q if c == "1" else 1 - q for c in w) for w in leaves
            )

        best = max(expected_len(t) for t in trees)
        assert built == pytest.approx(best, abs=1e-12)


def test_tunstall_dump(src):
    d = tunstall_build(src.q, 8)
    buf = io.StringIO()
    d.dump(buf)
    lines = buf.getvalue().splitlines()
    assert sorted(lines) == sorted(d.leaves)


def test_parse_newest_first(src):
    d = tunstall_build(0.3, 4)  # leaves 000,001,01,1
    pol = TunstallThresholdBitPolicy(src, 2, d)
    # buffer oldest-first; sendable = 4 means parse bits[3], bits[2], ...
    assert pol.parse_newest_first([0, 0, 0, 1], 4) == 1  # "1"
    assert pol.parse_newest_first([0, 1, 0, 0], 4) == 3  # "001"
    assert pol.parse_newest_first([1, 0, 0, 0], 4) == 3  # "000"
    assert pol.parse_newest_first([0, 0], 2) == 2  # runs out of bits mid-word


def test_tunstall_improves_plain(src):
    dic = tunstall_build(src.q, 2**src.N)
    for tau in (0, 3):
        plain = threshold_point(src, tau)
        bit, res = tunstall_threshold_point(src, tau, dic, horizon=300_000, seed=77 + tau)
        assert bit.delta_e == plain.delta_e
        assert bit.d <= plain.d + 2 * res.se_d


def test_uniform_dictionary_degenerates_to_plain():
    src = BinarySource(q=0.5, v=20.0, p=0.2, N=3)
    dic = tunstall_build(src.q, 2**src.N)
    assert dic.expected_parse_length == pytest.approx(src.N)
    tau = 2
    plain = simulate_bit_policy(
        SimConfig(horizon=200_000, seed=5), src, PlainThresholdBitPolicy(src, tau)
    )
    coded = simulate_bit_policy(
        SimConfig(horizon=200_000, seed=5), src, TunstallThresholdBitPolicy(src, tau, dic)
    )
    # balanced dictionary parses exactly N bits: identical trajectories
    assert coded.d == plain.d
    assert coded.delta_e == plain.delta_e


def test_threshold_policy_action_shape():
    pol = ThresholdPolicy(4)
    acts = [pol.action(l, 3) for l in range(1, 12)]
    assert acts == [1, 2, 3, 3, 3, 3, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        ThresholdPolicy(-1)


def test_bi_csv(src):
    rows = [
        BitCurvePoint("bi", 3, 0, 0.0, 3.4304),
        BitCurvePoint("bit", 3, 0, 0.0, 3.3),
    ]
    buf = io.StringIO()
    write_bi_csv(buf, rows)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "variant,N,tau,delta_e,d"
    assert lines[1] == "bi,3,0,0,3.4304"


def test_length_action_policy_clamps(src):
    sol = bi_policy_iteration(src, 0.2)
    pol = sol.policy()
    assert isinstance(pol, LengthActionPolicy)
    assert pol.action(sol.L_cap + 50) == sol.actions[sol.L_cap]
