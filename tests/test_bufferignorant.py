import io
import math

import numpy as np
import pytest

from agedist.bufferignorant import (
    TUNSTALL_CAP,
    BinarySource,
    BitCurvePoint,
    PlainThresholdBitPolicy,
    TunstallThresholdBitPolicy,
    bi_one_step_cost,
    bi_policy_iteration,
    oracle_chain_length,
    threshold_chain_matrix,
    threshold_point,
    tunstall_build,
    tunstall_threshold_point,
    write_bi_csv,
    _bi_evaluate,
    _leftover_table,
)
from agedist.sim import SimConfig, simulate_bit_policy
from agedist.solver import policy_iteration
from agedist.strategies import S3Policy, s1_point, stationary_distribution


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


@pytest.mark.parametrize(
    "name, call",
    [
        pytest.param("tau", lambda src, fig1: threshold_point(src, 2.5), id="threshold_point-float"),
        pytest.param("tau", lambda src, fig1: threshold_point(src, True), id="threshold_point-bool"),
        pytest.param("tau", lambda src, fig1: PlainThresholdBitPolicy(src, 2.5), id="plain-policy"),
        pytest.param(
            "tau", lambda src, fig1: tunstall_threshold_point(src, 2.5, tunstall_build(src.q, 8)), id="tunstall-point"
        ),
        pytest.param("M", lambda src, fig1: tunstall_build(0.3, 4.5), id="tunstall_build"),
        pytest.param("N", lambda src, fig1: BinarySource(0.3, 20.0, 0.2, 2.5), id="source-float"),
        pytest.param("N", lambda src, fig1: BinarySource(0.3, 20.0, 0.2, True), id="source-bool"),
        pytest.param("K", lambda src, fig1: s1_point(fig1, 2.5), id="s1_point"),
        pytest.param("K", lambda src, fig1: S3Policy(fig1, 2.5), id="S3Policy"),
        pytest.param("eta", lambda src, fig1: policy_iteration(fig1, True), id="eta-bool"),
        pytest.param("eta", lambda src, fig1: policy_iteration(fig1, "1"), id="eta-string"),
    ],
)
def test_integer_parameters_reject_other_types(src, fig1, name, call):
    """A float or bool count, or a bool or string eta, is a ValueError naming it, not a TypeError or a coercion."""
    with pytest.raises(ValueError, match=rf"\b{name}\b"):
        call(src, fig1)


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


@pytest.mark.parametrize(
    "q,p,N,tau",
    [pytest.param(0.3, 0.2, 3, tau, id=str(tau)) for tau in range(13)]
    # depths where an alternating-sum closed form cancelled: d = 1.166 for 5.36
    # (fig1, N = 1), d < 0 (fig1, N = 3), pi off by a factor of 50 (fig2, N = 2)
    + [
        pytest.param(0.3, 0.2, 1, 100, id="fig1-N1-100"),
        pytest.param(0.3, 0.2, 3, 200, id="fig1-N3-200"),
        pytest.param(0.2, 0.3, 2, 30, id="fig2-N2-30"),
        # the leftover law grows about 4.8-fold per step down from tau and is rescaled
        pytest.param(0.3, 0.8, 3, 600, id="p0.8-N3-600"),
    ],
)
def test_threshold_pi_against_chain_solve(q, p, N, tau):
    src = BinarySource(q=q, v=20.0, p=p, N=N)
    pt = threshold_point(src, tau)
    assert pt.pi_sum() == pytest.approx(1.0, abs=1e-10)
    L = oracle_chain_length(src, tau)
    P = threshold_chain_matrix(src, tau, L)
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
    num = stationary_distribution(P)
    worst = max(abs(pt.pi_of(l) - num[l - 1]) for l in range(1, L - 2))
    assert worst < 1e-9
    s = np.array([PlainThresholdBitPolicy(src, tau).action(l) for l in range(1, L + 1)])
    assert pt.delta_e == pytest.approx(num @ (np.arange(1, L + 1) - s), abs=1e-9)
    assert pt.d == pytest.approx(src.mu_v * p * (num @ np.maximum(s - N, 0)), abs=1e-9)


def test_threshold_point_rejects_speaking_every_slot():
    src = BinarySource(q=0.3, v=20.0, p=1.0, N=3)
    assert threshold_point(src, 0).d == 0.0
    with pytest.raises(ValueError, match="tau=2 with N=3"):
        threshold_point(src, 2)


@pytest.mark.parametrize("N", [3, 6])
def test_threshold_point_matches_length_chain_evaluation(N):
    """The threshold closed forms against an exact solve of the length chain."""
    src = BinarySource(q=0.3, v=20.0, p=0.2, N=N)
    for tau in range(13):
        L = oracle_chain_length(src, tau)
        T, tail = _leftover_table(src, L)
        chunk = src.mu_v * src.p * np.maximum(np.arange(L + 1) - N, 0)
        rule = PlainThresholdBitPolicy(src, tau)
        actions = np.array([0] + [rule.action(l) for l in range(1, L + 1)])
        _, delta_e, d, _ = _bi_evaluate(actions, chunk, T, tail, 1.0)
        pt = threshold_point(src, tau)
        assert delta_e == pytest.approx(pt.delta_e, abs=1e-12)
        assert d == pytest.approx(pt.d, abs=1e-12)


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
    res = simulate_bit_policy(SimConfig(horizon=400_000, seed=11), src, sol)
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
    over = TUNSTALL_CAP + 1  # rejected before the build starts
    with pytest.raises(ValueError, match=rf"M={over} must lie in \[2, {TUNSTALL_CAP}\]"):
        tunstall_build(0.5, over)


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
        bit = tunstall_threshold_point(src, tau, dic)
        policy = TunstallThresholdBitPolicy(src, tau, dic)
        res = simulate_bit_policy(SimConfig(horizon=300_000, seed=77 + tau), src, policy)
        assert bit.delta_e == plain.delta_e
        assert bit.d <= plain.d
        assert res.d <= plain.d + 2 * res.se_d


def _coded_d_by_chain_solve(source, tau, dic):
    """Coded distortion from a dense solve of the length chain.

    A skip state l > tau + N parses a word of length W from its l - tau
    sendable bits and skips the (l - tau - W)^+ older ones; the leaf law is
    taken bit by bit under ``source.q``.
    """
    L = oracle_chain_length(source, tau)
    pi = stationary_distribution(threshold_chain_matrix(source, tau, L))
    W = np.array([len(w) for w in dic.leaves])
    bit_law = {"0": 1 - source.q, "1": source.q}
    law = np.array([math.prod(bit_law[c] for c in w) for w in dic.leaves])
    sendable = np.arange(1, L + 1) - tau
    skipped = np.maximum(sendable[:, None] - W, 0) @ law
    return source.mu_v * source.p * (pi @ np.where(sendable > source.N, skipped, 0.0))


FIG_SOURCES = {"fig1": (0.3, 20.0, 0.2), "fig2": (0.2, 20.0, 0.3)}


@pytest.mark.parametrize(
    "q,v,p,N,q_dic",
    [
        *[
            pytest.param(*FIG_SOURCES[f], N, FIG_SOURCES[f][0], id=f"{f}-N{N}")
            for f in FIG_SOURCES
            for N in (1, 3, 6)
        ],
        pytest.param(0.05, 20.0, 0.2, 3, 0.05, id="short-words"),  # words of 1 to 7 bits
        pytest.param(0.3, 20.0, 0.2, 3, 0.1, id="dictionary-for-other-q"),
        pytest.param(0.1, 5.0, 0.25, 4, 0.4, id="dictionary-for-other-q-N4"),
    ],
)
def test_tunstall_point_matches_length_chain_solve(q, v, p, N, q_dic):
    src = BinarySource(q=q, v=v, p=p, N=N)
    dic = tunstall_build(q_dic, 2**N)
    for tau in (0, 2, 5, 40):
        bit = tunstall_threshold_point(src, tau, dic)
        assert (bit.variant, bit.N, bit.tau) == ("bit", N, tau)
        assert bit.delta_e == threshold_point(src, tau).delta_e
        assert bit.d == pytest.approx(_coded_d_by_chain_solve(src, tau, dic), rel=1e-12)


def test_balanced_dictionary_gives_plain_point():
    src = BinarySource(q=0.5, v=20.0, p=0.2, N=3)
    dic = tunstall_build(src.q, 2**src.N)
    for tau in (0, 2, 5, 40):
        assert tunstall_threshold_point(src, tau, dic).d == pytest.approx(
            threshold_point(src, tau).d, rel=1e-12
        )


@pytest.mark.parametrize("fig", FIG_SOURCES)
@pytest.mark.parametrize("N", [3, 6])
def test_tunstall_point_matches_simulation(fig, N):
    src = BinarySource(*FIG_SOURCES[fig], N=N)
    dic = tunstall_build(src.q, 2**N)
    for tau in (0, 2, 5):
        bit = tunstall_threshold_point(src, tau, dic)
        seed = 500 + 100 * list(FIG_SOURCES).index(fig) + 10 * N + tau
        policy = TunstallThresholdBitPolicy(src, tau, dic)
        res = simulate_bit_policy(SimConfig(horizon=1_000_000, seed=seed), src, policy)
        assert abs(res.d - bit.d) < 4 * res.se_d
        assert bit.d <= threshold_point(src, tau).d


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


def test_threshold_policy_action_shape(src):
    pol = PlainThresholdBitPolicy(src, 4)
    acts = [pol.action(l) for l in range(1, 12)]
    assert acts == [1, 2, 3, 3, 3, 3, 3, 4, 5, 6, 7]
    with pytest.raises(ValueError):
        PlainThresholdBitPolicy(src, -1)
    dic = tunstall_build(src.q, 2**src.N)
    assert [TunstallThresholdBitPolicy(src, 4, dic).action(l) for l in range(1, 12)] == acts
    with pytest.raises(ValueError):
        TunstallThresholdBitPolicy(src, -1, dic)


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
    # the solution is its own bit policy
    sol = bi_policy_iteration(src, 0.2)
    assert (sol.n_bits, sol.max_buffer) == (src.N, sol.L_cap)
    assert [sol.action(l) for l in range(1, sol.L_cap + 1)] == sol.actions[1:].tolist()
    assert sol.action(sol.L_cap + 50) == sol.actions[sol.L_cap]
