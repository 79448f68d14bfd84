import io
import tracemalloc
import zlib

import numpy as np
import pytest

from agedist import FinitePMF, Geometric, ImportanceDist, Model
from agedist.sim import SimConfig, simulate_policy
from agedist.solver import evaluate_components
from agedist.statetree import StateTree
from agedist.strategies import (
    S3Policy,
    s1_point,
    s1_transition_matrix,
    s2_point,
    s2_transition_matrix,
    s3_point,
    s3_transition_matrix,
    stationary_distribution,
    strategy_curve,
    strategy_point,
    window_table,
    write_curve_csv,
)


def test_preconditions_rejected(fig1):
    three = Model(ImportanceDist((1.0, 2.0, 3.0), (0.5, 0.3, 0.2)), Geometric(0.2))
    with pytest.raises(ValueError):
        s1_point(three, 3)
    finite = Model(fig1.v, FinitePMF((0.5, 0.5)))
    with pytest.raises(ValueError):
        s2_point(finite, 3)
    with pytest.raises(ValueError):
        s1_point(fig1, 0)
    for K in (0, -2):
        for name in ("S1", "S2"):
            with pytest.raises(ValueError, match="window size K"):
                window_table(fig1, name, K)
        with pytest.raises(ValueError, match="window size K"):
            S3Policy(fig1, K)
    for name in ("S1", "S2"):
        with pytest.raises(ValueError, match="two importance values"):
            window_table(three, name, 3)
        with pytest.raises(ValueError, match="geometric"):
            window_table(finite, name, 3)
    with pytest.raises(ValueError):
        strategy_point(fig1, "S9", 2)
    with pytest.raises(ValueError, match="unknown window strategy"):
        window_table(fig1, "S3", 2)


def test_window_one_equals_send_latest(fig1):
    for fn in (s1_point, s2_point, s3_point):
        pt = fn(fig1, 1)
        assert pt.delta_e >= 0.0
    pt = s1_point(fig1, 1)
    assert pt.delta_e == pytest.approx(0.0, abs=1e-12)
    assert pt.d == pytest.approx(6.7 * (1 - 0.2), abs=1e-12)
    pt2 = s2_point(fig1, 1)
    assert pt2.delta_e == pytest.approx(0.0, abs=1e-12)
    assert pt2.d == pytest.approx(pt.d, abs=1e-12)


def test_s1_equal_rates_limit():
    model = Model(ImportanceDist((1.0, 20.0), (0.8, 0.2)), Geometric(0.2))
    pt = s1_point(model, 3)
    assert pt.delta_e == pytest.approx(2 * 3 / (2 * (3 + 4)), abs=1e-12)


def test_s2_examples(fig1):
    pt = s2_point(fig1, 1)
    assert pt.pi[1] == pytest.approx(0.3, abs=1e-15)
    assert pt.pi[0] == pytest.approx(0.7, abs=1e-15)
    for K in range(1, 41):
        assert s2_point(fig1, K).pi.sum() == pytest.approx(1.0, abs=1e-12)
    # large window: pi_0 tends to qbar*p / (1 - pbar*qbar)
    limit = 0.7 * 0.2 / (1 - 0.8 * 0.7)
    assert s2_point(fig1, 60).pi[0] == pytest.approx(limit, abs=1e-9)


# r = qbar / pbar = 1.8: r**K overflows a float from K = 1208 on
STEEP = Model(ImportanceDist((1.0, 20.0), (0.9, 0.1)), Geometric(0.5))
# r = 1 + 5e-10: ratios such as (1 - r) / (1 - (p/q) r**K) cancel to a few digits here
NEAR_ONE = Model(ImportanceDist((1.0, 20.0), (0.8 * (1 + 5e-10), 1 - 0.8 * (1 + 5e-10))), Geometric(0.2))


@pytest.mark.parametrize("K", [1, 2, 3, 5, 8, 11, 15])
def test_rows_sum_and_stationary_match(fig1, fig2, K):
    # r = qbar / pbar is 7/8 for fig1, 8/7 for fig2, 1.8 for STEEP and 1 + 5e-10 for NEAR_ONE
    for model in (fig1, fig2, STEEP, NEAR_ONE):
        for build, closed in (
            (s1_transition_matrix, s1_point),
            (s2_transition_matrix, s2_point),
            (s3_transition_matrix, s3_point),
        ):
            P = build(model, K)
            assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-12
            pi = closed(model, K).pi
            num = stationary_distribution(P)
            assert np.abs(pi - num).max() < 1e-10


def test_closed_forms_finite_when_r_to_the_K_overflows():
    for closed, K in ((s1_point, 2000), (s3_point, 1300)):
        pt = closed(STEEP, K)
        assert np.isfinite(pt.pi).all() and pt.pi.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.isfinite([pt.delta_e, pt.d]).all()
        # far past the overflow, the window no longer matters
        near = closed(STEEP, 1000)
        assert pt.delta_e == pytest.approx(near.delta_e, abs=1e-12)
        assert pt.d == pytest.approx(near.d, abs=1e-12)


def test_stationary_distribution_rejects_two_recurrent_classes():
    with pytest.raises(RuntimeError, match="not unichain"):
        stationary_distribution(np.eye(2))


@pytest.mark.parametrize("K", range(1, 9))
def test_s1_s2_closed_forms_match_trie_chain_policies(fig1, fig2, K):
    """The S1 and S2 window tables, evaluated exactly on the window-K trie."""
    for model in (fig1, fig2, NEAR_ONE):
        tree = StateTree(model, K)
        for name, point in (("S1", s1_point), ("S2", s2_point)):
            delta_e, d = evaluate_components(model, tree, window_table(model, name, K).actions)
            pt = point(model, K)
            assert delta_e == pytest.approx(pt.delta_e, abs=1e-12)
            assert d == pytest.approx(pt.d, abs=1e-12)


def _oldest_important(entries, v_min):
    return next((j for j, v in enumerate(entries, 1) if v > v_min), len(entries))


def _newest_important(entries, v_min):
    return next((j for j in range(len(entries), 0, -1) if entries[j - 1] > v_min), len(entries))


@pytest.mark.parametrize("K", [1, 2, 5, 8])
def test_window_tables_match_per_buffer_rules(fig1, K):
    """Every state of the S1/S2 tables picks what the per-buffer rule picks."""
    tree = StateTree(fig1, K)
    for name, rule in (("S1", _oldest_important), ("S2", _newest_important)):
        table = window_table(fig1, name, K)
        assert table.values == fig1.v.values and len(table.actions) == K + 1
        for l in range(1, K + 1):
            want = [rule(tree.entries_of(l, i), 1.0) for i in range(tree.level_size[l])]
            assert table.actions[l].tolist() == want, (name, l)


def test_deepest_window_table_builds_without_copies(fig1):
    # the S2 table at the depth cap is 2**24 - 1 uint8 actions, 16 MB
    tracemalloc.start()
    try:
        table = window_table(fig1, "S2", 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(a.nbytes for a in table.actions) == (1 << 24) - 1
    assert peak < 24 << 20
    # all v_min sends the newest; otherwise the newest important packet
    assert table.actions[23][[0, 1, 2, 1 << 22]].tolist() == [23, 23, 22, 1]


@pytest.mark.parametrize("K", [1, 3, 7, 10])
def test_detailed_balance_s1_s3(fig1, K):
    for build, closed in ((s1_transition_matrix, s1_point), (s3_transition_matrix, s3_point)):
        P = build(fig1, K)
        pi = closed(fig1, K).pi
        flow = pi[:, None] * P
        assert np.abs(flow - flow.T).max() < 1e-10


def test_s3_conditional_age_normalizes(fig1):
    p, q = 0.2, 0.3
    r = (1 - p) * (1 - q)
    total = sum(r ** (z - 1) * (1 - r) for z in range(1, 2000))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_distortion_nonnegative_and_floor(fig1, fig2):
    for model in (fig1, fig2):
        for K in range(1, 21):
            for name in ("S1", "S2", "S3"):
                pt = strategy_point(model, name, K)
                assert pt.d >= -1e-12
                assert pt.d >= model.d_min() - 1e-10


def test_age_monotone_regression(fig1):
    for name in ("S1", "S3"):
        ages = [strategy_point(fig1, name, K).delta_e for K in range(1, 16)]
        assert all(b >= a - 1e-12 for a, b in zip(ages, ages[1:]))


def test_figure2_floor_approach(fig2):
    # with p > q the sender can eventually deliver every important packet
    assert s1_point(fig2, 40).d == pytest.approx(0.7, abs=0.01)
    assert s3_point(fig2, 40).d == pytest.approx(0.7, abs=0.01)
    gaps = [s1_point(fig2, K).d - 0.7 for K in (5, 10, 20, 40)]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


def test_curve_csv(fig1):
    pts = strategy_curve(fig1, "S2", range(1, 4))
    buf = io.StringIO()
    write_curve_csv(buf, pts)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "strategy,K,delta_e,d"
    assert len(lines) == 4
    assert lines[1].startswith("S2,1,")


@pytest.mark.parametrize("name", ["S1", "S2", "S3"])
def test_simulation_matches_closed_form(fig1, name):
    K = 4
    pt = strategy_point(fig1, name, K)
    policy = S3Policy(fig1, K) if name == "S3" else window_table(fig1, name, K)
    res = simulate_policy(
        SimConfig(horizon=400_000, seed=zlib.crc32(name.encode()), model=fig1), policy
    )
    assert abs(res.delta_e - pt.delta_e) < 4 * res.se_delta
    assert abs(res.d - pt.d) < 4 * res.se_d
