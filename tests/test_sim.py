import contextlib
import dataclasses
import hashlib
import io
import json
import random
import tracemalloc

import numpy as np
import pytest

from agedist import FinitePMF, Geometric, ImportanceDist, Model, PolicySolution, policy_iteration
from agedist import cli, sim, solver
from agedist.bufferignorant import (
    BinarySource,
    PlainThresholdBitPolicy,
    TunstallThresholdBitPolicy,
    bi_policy_iteration,
    tunstall_build,
)
from agedist.sim import SimConfig, SimResult, simulate_bit_policy, simulate_erasure, simulate_policy
from agedist.statetree import StateTree
from agedist.strategies import S3Policy, WindowTable, window_table
from slot_loop import loop_run, reference_packets, table_pick


def _latest(model):
    return window_table(model, "send-latest")


def _assert_same_result(a, b):
    """Every SimResult field bit for bit, NaN equal to NaN."""
    for f in dataclasses.fields(SimResult):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), f.name
        else:
            assert x == y or (x != x and y != y), f.name


def test_config_validation(fig1):
    with pytest.raises(ValueError):
        SimConfig(horizon=5000, seed=1, model=fig1)
    with pytest.raises(ValueError, match="int32"):
        SimConfig(horizon=2**31, seed=1, model=fig1)
    with pytest.raises(ValueError, match="^seed must be a non-negative integer, got -1$"):
        SimConfig(horizon=100_000, seed=-1, model=fig1)
    cfg = SimConfig(horizon=100_000, seed=1, model=fig1)
    assert cfg.burn == 1000
    assert SimConfig(np.int64(100_000), np.uint32(1), fig1).burn == 1000
    # a float horizon or seed used to fail later with a numpy TypeError, and seed=True ran as seed 1
    for horizon, seed, match in [
        (1e5, 1, r"^horizon must be an integer, got 100000\.0$"),
        (True, 1, "^horizon must be an integer, got True$"),
        (100_000, 1.5, r"^seed must be an integer, got 1\.5$"),
        (100_000, True, "^seed must be an integer, got True$"),
        (100_000, "1", "^seed must be an integer, got '1'$"),
    ]:
        with pytest.raises(ValueError, match=match):
            SimConfig(horizon, seed, fig1)


def test_reproducibility(fig1):
    sol = policy_iteration(fig1, 1.0)
    cfg = SimConfig(horizon=50_000, seed=42, model=fig1)
    a = simulate_policy(cfg, sol)
    b = simulate_policy(cfg, sol)
    assert a.to_json_dict() == b.to_json_dict()
    assert np.array_equal(a.batch_delta, b.batch_delta)
    c = simulate_policy(SimConfig(horizon=50_000, seed=43, model=fig1), sol)
    assert c.d != a.d


def test_send_latest_matches_renewal_value(fig1):
    res = simulate_policy(SimConfig(horizon=600_000, seed=7, model=fig1), _latest(fig1))
    assert res.delta_e == 0.0
    assert abs(res.d - 5.36) < 4 * res.se_d


def test_deterministic_unit_gaps():
    model = Model(ImportanceDist((1.0, 20.0), (0.7, 0.3)), FinitePMF((1.0,)))
    res = simulate_policy(SimConfig(horizon=20_000, seed=3, model=model), _latest(model))
    assert res.delta_e == 0.0
    assert res.d == 0.0


def test_solved_policy_consistency(fig1):
    sol = policy_iteration(fig1, 0.5)
    res = simulate_policy(SimConfig(horizon=500_000, seed=20, model=fig1), sol)
    gap = abs(res.d + 0.5 * res.delta_e - sol.lam)
    assert gap < 4 * res.combined_se(0.5)


def test_erasure_probability_zero(fig1):
    model = Model(fig1.v, Geometric(1.0))  # every commitment delivered
    cfg = SimConfig(horizon=20_000, seed=4, model=model)
    res = simulate_erasure(cfg, _latest(model))
    assert res.delta_e == 0.0
    assert res.d == 0.0
    with pytest.raises(ValueError):
        simulate_erasure(
            SimConfig(horizon=20_000, seed=4, model=Model(fig1.v, FinitePMF((1.0,)))),
            _latest(fig1),
        )


def test_infeasible_policy_aborts(fig1):
    class Stale:
        max_buffer = 4

        def __call__(self, entries):
            return 1  # eventually points at a stale minimum-importance packet

    with pytest.raises(RuntimeError):
        simulate_policy(SimConfig(horizon=10_000, seed=0, model=fig1), Stale())


def test_bit_sim_tau0(fig1):
    src = BinarySource.from_model(fig1, 3)
    res = simulate_bit_policy(
        SimConfig(horizon=400_000, seed=6), src, PlainThresholdBitPolicy(src, 0)
    )
    assert res.delta_e == 0.0
    assert abs(res.d - 6.7 * 0.512) < 4 * res.se_d


def test_se_scales_with_horizon(fig1):
    sol = policy_iteration(fig1, 1.0)
    r1 = simulate_policy(SimConfig(horizon=200_000, seed=15, model=fig1), sol)
    r2 = simulate_policy(SimConfig(horizon=400_000, seed=15, model=fig1), sol)
    for a, b in ((r1.se_d, r2.se_d), (r1.se_delta, r2.se_delta)):
        ratio = a / b
        assert np.sqrt(2) / 1.5 < ratio < np.sqrt(2) * 1.5


def test_json_contract(fig1, tmp_path):
    res = simulate_policy(SimConfig(horizon=20_000, seed=1, model=fig1), _latest(fig1))
    doc = res.to_json_dict()
    assert set(doc) == {"delta_e", "se_delta", "d", "se_d", "horizon", "seed"}
    path = tmp_path / "r.json"
    res.to_json(str(path))
    import json

    assert json.loads(path.read_text()) == doc


def test_missing_model_rejected(fig1):
    with pytest.raises(ValueError):
        simulate_policy(SimConfig(horizon=20_000, seed=0), _latest(fig1))


THREE_GEO = Model(ImportanceDist((0.3, 1.7, 5.1), (0.5, 0.3, 0.2)), Geometric(0.3))

# (delta_e, se_delta, d, se_d, batches, digest of batch_delta, digest of
# batch_d), recorded with the per-mode simulation loops of commit 9917e7b;
# the one loop that replaced them must reproduce every bit.  "S1-K4-erasure"
# and "S2-K4" were recorded at 660426a with the per-buffer S1/S2 classes that
# the window tables replaced.  "S3-K6-erasure", "three-geo-K2" and
# "three-geo-K10" were recorded at d699059, whose loop still charged each
# fall-off and skip and added each age area as it went.  "three-solved" and
# "three-geo-K10" were re-recorded when the accounting began to charge each
# passed-over entry by itself instead of adding a skip's sum worked out first:
# on their non-integer values that moves d by rounding only (6.1e-16 and
# 3.4e-15 relative), and with it se_d and batch_d.
PINNED = {
    "direct-eta1": (0.509125475285171, 0.010675292380909866, 4.216843434343434, 0.03980112710807024, 32, "09e7ed908b24dc87", "30588d951a1212f8"),
    "S1-K4": (1.1316975463194792, 0.016813491853025858, 3.921818181818182, 0.05096496713323175, 32, "f4f4737102e4d476", "6d1a9a0ad738dc5d"),
    "S1-K4-erasure": (1.1645869727976041, 0.01648268264862117, 3.949469696969697, 0.04193051015010204, 32, "47fc881f77b5432d", "4d72ef16a28c0929"),
    "S2-K4": (0.514179104477612, 0.008906570490638907, 4.077878787878788, 0.045325732391995416, 32, "20afc007759a22ec", "5b0fd60e07059f43"),
    "S3-K6": (4.826654717705799, 0.05720708813020016, 3.151010101010101, 0.04818434768672347, 32, "4266610a36926f7a", "ed7c14b9572aafdd"),
    "S3-K6-erasure": (4.7730263157894735, 0.055546028166402486, 3.1221717171717174, 0.05373977009521275, 32, "f512a34c794242a8", "57eda5709e6d4795"),
    "three-latest": (0.0, 0.0, 0.8404015151515143, 0.0063223318200095815, 32, "fab19e942d1b9314", "4d712d0e25d21b5a"),
    "three-solved": (0.1592195713708047, 0.0029016290960440084, 0.5444065656565654, 0.004837700181539535, 32, "f9e28b44d524ebe0", "59e62c6566ed8b75"),
    "three-geo-K2": (0.1118756371049949, 0.00265695063969561, 1.0241363636363594, 0.00842627065911905, 32, "d1b1294dde19dcf7", "92b4e220b9c0d655"),
    "three-geo-K10": (1.0403651285486977, 0.016066774215594482, 0.7246691919191891, 0.00831923135733737, 32, "387a6bae96a876b9", "4fa1241c866f7f2e"),
    "bits-tunstall": (2.033806711072012, 0.02210058500748691, 2.6965151515151513, 0.05141628040701598, 32, "e4c76b20e31cac5c", "fbfab8f682aa4b2d"),
    "bits-length": (1.2456229383405226, 0.010762052801207619, 2.9307575757575757, 0.03563471584468595, 32, "91c8f3e10f1aff9d", "7c8bc10f5963ec1f"),
}


def _digest(arr) -> str:
    return hashlib.blake2b(np.asarray(arr, dtype="<f8").tobytes(), digest_size=8).hexdigest()


def _pinned_run(name, fig1):
    H = 40_000
    three = Model(ImportanceDist((0.3, 1.7, 5.1), (0.5, 0.3, 0.2)), FinitePMF((0.3, 0.4, 0.3)))
    src = BinarySource.from_model(fig1, 3)
    runs = {
        "direct-eta1": lambda: simulate_policy(SimConfig(H, 11, fig1), policy_iteration(fig1, 1.0)),
        "S1-K4": lambda: simulate_policy(SimConfig(H, 12, fig1), window_table(fig1, "S1", 4)),
        "S1-K4-erasure": lambda: simulate_erasure(SimConfig(H, 18, fig1), window_table(fig1, "S1", 4)),
        "S2-K4": lambda: simulate_policy(SimConfig(H, 17, fig1), window_table(fig1, "S2", 4)),
        "S3-K6": lambda: simulate_policy(SimConfig(H, 13, fig1), S3Policy(fig1, 6)),
        "S3-K6-erasure": lambda: simulate_erasure(SimConfig(H, 19, fig1), S3Policy(fig1, 6)),
        "three-latest": lambda: simulate_policy(SimConfig(H, 14, three), _latest(three)),
        "three-solved": lambda: simulate_policy(SimConfig(H, 14, three), policy_iteration(three, 1.0)),
        # K=2 on non-integer values: fall-off and skip charges interleave in every batch
        "three-geo-K2": lambda: simulate_policy(SimConfig(H, 20, THREE_GEO), policy_iteration(THREE_GEO, 1.0)),
        # K=10: skips of three or more non-integer entries, whose sum depends on their order
        "three-geo-K10": lambda: simulate_policy(SimConfig(H, 22, THREE_GEO), policy_iteration(THREE_GEO, 0.15)),
        "bits-tunstall": lambda: simulate_bit_policy(
            SimConfig(H, 15), src, TunstallThresholdBitPolicy(src, 3, tunstall_build(src.q, 8))
        ),
        "bits-length": lambda: simulate_bit_policy(
            SimConfig(H, 16), src, bi_policy_iteration(src, 0.2)
        ),
    }
    return runs[name]()


def _assert_pinned(name, fig1):
    res = _pinned_run(name, fig1)
    got = (res.delta_e, res.se_delta, res.d, res.se_d, res.batches)
    assert got + (_digest(res.batch_delta), _digest(res.batch_d)) == PINNED[name]


@pytest.mark.parametrize("name", sorted(PINNED))
def test_results_pinned_bit_for_bit(fig1, name):
    _assert_pinned(name, fig1)


@pytest.mark.parametrize(
    "name",
    ["three-geo-K10", "three-solved", "S1-K4-erasure", "S3-K6", "S3-K6-erasure", "bits-tunstall", "bits-length"],
)
def test_chunk_sizes_keep_pinned_results(fig1, monkeypatch, name):
    """Draws (gaps of a finite PMF too), walks and accounting blocks cut at other sizes."""
    monkeypatch.setattr(sim, "DRAW_CHUNK", 1000)
    monkeypatch.setattr(sim, "KEY_CHUNK", 7)
    monkeypatch.setattr(sim, "ACCOUNT_BLOCK", 7)  # sends and spans straddle the blocks
    _assert_pinned(name, fig1)


@pytest.mark.parametrize("mode", ["direct", "erasure"])
@pytest.mark.parametrize(
    "which, eta",
    [("fig1", 0.3), ("fig1", 1.0), ("fig1", 2.0), ("three", 0.15), ("three", 0.5), ("three", 1.0)],
)
def test_table_route_matches_callable_route(fig1, which, eta, mode):
    model = fig1 if which == "fig1" else THREE_GEO
    sol = policy_iteration(model, eta)
    if eta == 0.3:
        assert sol.K >= 9  # rolling keys reach m**j >= 256, wider than a uint8 digit
    run = simulate_erasure if mode == "erasure" else simulate_policy
    cfg = SimConfig(horizon=40_000, seed=21, model=model)
    _assert_same_result(run(cfg, sol), run(cfg, table_pick(sol)))


class _RandomPick:
    """A random feasible pick: any entry but a stale v_min one, so skips of every length occur."""

    def __init__(self, model, max_buffer):
        self.v_min, self.max_buffer = model.v.v_min, max_buffer
        self.rng = random.Random(7)

    def __call__(self, entries):
        l = len(entries)
        return self.rng.choice([s for s in range(1, l) if entries[s - 1] > self.v_min] + [l])


class _StationaryRandomPick(_RandomPick):
    """A random feasible pick seeded by the buffer's contents: the same buffer always gets the same pick."""

    def __call__(self, entries):
        self.rng.seed(hash(tuple(entries)))
        return super().__call__(entries)


def _reference_bits(cfg, src, policy):
    """``loop_run`` on a bits run's draws, asking ``policy`` per delivery: the scalar Tunstall parse."""
    arr_rng, tim_rng = sim._streams(cfg.seed)
    bits = sim._flags(arr_rng, src.q, cfg.horizon).view(np.int8)
    speaks = sim._slots_where(sim._flags(tim_rng, src.p, cfg.horizon))
    N, coded = policy.n_bits, isinstance(policy, TunstallThresholdBitPolicy)

    def select(t, l):
        if coded and l > policy.tau + N:
            sendable = l - policy.tau
            return sendable - policy.parse_newest_first(bits[t - l : t], sendable), sendable
        s = policy.action(l)
        return max(s - N, 0), s

    return loop_run(cfg, (1.0, src.v), bits, speaks, select, policy.max_buffer)


# geometric p and seed of fig1-valued runs that never deliver, or deliver within one batch only
SPARSE = {"no-delivery": (1e-9, 32), "one-batch": (1e-4, 31)}


@pytest.mark.parametrize(
    "name",
    [
        "random-K5",
        "random-K5-erasure",
        "random-untruncated",
        "table-eta0.3",
        "table-erasure",
        "S1-K5-erasure",
        "S3-K6",
        "S3-K6-erasure",
        "bits-tunstall",
        "bits-length",
        *(f"{route}:{run}" for run in SPARSE for route in ("table", "S3", "random", "bits")),
    ],
)
def test_accounting_matches_per_slot_loop(fig1, name):
    route, _, run = name.partition(":")
    cfg = SimConfig(horizon=20_000, seed=31, model=THREE_GEO)
    fig1_cfg = SimConfig(horizon=20_000, seed=32, model=fig1)
    if run:  # the accounting's blocks and carries meet empty spans
        p, seed = SPARSE[run]
        model = Model(fig1.v, Geometric(p))
        fig1_cfg = SimConfig(horizon=20_000, seed=seed, model=model)
    if name.startswith("bits"):
        src = BinarySource.from_model(fig1_cfg.model, 3)
        if name == "bits-length":
            policy = bi_policy_iteration(src, 0.2)
        else:
            policy = TunstallThresholdBitPolicy(src, 2, tunstall_build(src.q, 8))
        bits_cfg = SimConfig(20_000, fig1_cfg.seed if run else 33)
        got = simulate_bit_policy(bits_cfg, src, policy)
        _assert_same_result(got, _reference_bits(bits_cfg, src, policy))
    else:
        cases = {  # (config, erasure mode, a fresh policy)
            "random-K5": (cfg, False, lambda: _RandomPick(THREE_GEO, 5)),
            "random-K5-erasure": (cfg, True, lambda: _StationaryRandomPick(THREE_GEO, 5)),
            "random-untruncated": (cfg, False, lambda: _RandomPick(THREE_GEO, None)),
            "table-eta0.3": (fig1_cfg, False, lambda: policy_iteration(fig1, 0.3)),
            "table-erasure": (cfg, True, lambda: policy_iteration(THREE_GEO, 0.15)),
            "S1-K5-erasure": (fig1_cfg, True, lambda: window_table(fig1, "S1", 5)),
            "S3-K6": (fig1_cfg, False, lambda: S3Policy(fig1, 6)),
            "S3-K6-erasure": (fig1_cfg, True, lambda: S3Policy(fig1, 6)),
            "table": (fig1_cfg, False, lambda: policy_iteration(fig1, 1.0)),
            "S3": (fig1_cfg, False, lambda: S3Policy(fig1_cfg.model, 6)),
            "random": (fig1_cfg, False, lambda: _RandomPick(fig1_cfg.model, 5)),
        }
        config, erasure, make = cases[route]
        got = (simulate_erasure if erasure else simulate_policy)(config, make())
        _assert_same_result(got, reference_packets(config, make(), erasure))
    if run:
        assert got.batches == {"no-delivery": 0, "one-batch": 1}[run]


def test_erasure_asks_a_callable_once_per_delivery(fig1):
    cfg = SimConfig(horizon=20_000, seed=34, model=fig1)
    sol = policy_iteration(fig1, 1.0)
    calls = []

    def counted(entries):
        calls.append(len(entries))
        return sol.action_for(entries)

    counted.max_buffer = sol.max_buffer
    res = simulate_erasure(cfg, counted)
    deliveries = len(sim._speak_slots(fig1, sim._streams(cfg.seed)[1], cfg.horizon))
    assert len(calls) == deliveries < cfg.horizon
    _assert_same_result(res, simulate_policy(cfg, sol))


class _HiddenWalk:
    """S3 without its walk, so it is called with each buffer slice."""

    def __init__(self, policy):
        self._policy = policy
        self.max_buffer = policy.max_buffer

    def __call__(self, entries):
        return self._policy(entries)


@pytest.mark.parametrize("run", [simulate_policy, simulate_erasure], ids=["direct", "erasure"])
@pytest.mark.parametrize("K", [1, 6, 12, 400])  # at K=400 the backlog grows past K before an older pick
def test_s3_index_route_matches_callable_route(fig1, K, run):
    cfg = SimConfig(horizon=40_000, seed=24, model=fig1)
    _assert_same_result(run(cfg, S3Policy(fig1, K)), run(cfg, _HiddenWalk(S3Policy(fig1, K))))


@pytest.mark.parametrize("N", [2, 3, 6])
def test_tunstall_word_lengths_match_scalar_parse(N):
    """Vectorized word lengths against ``parse_newest_first``, short regions that run off bit 0 included."""
    src = BinarySource(q=0.3, v=20.0, p=0.2, N=N)
    policy = TunstallThresholdBitPolicy(src, 2, tunstall_build(src.q, 2**N))
    rng = np.random.default_rng(N)
    bits = (rng.random(4000) < src.q).astype(np.int8)
    newest = rng.integers(0, len(bits), 2000)
    newest[:50] = np.arange(50) % (policy._max_len + 1)  # regions shorter than the longest word
    sendable = np.minimum(rng.integers(1, 3 * policy._max_len, len(newest)), newest + 1)
    words = np.minimum(policy.word_lengths(bits, newest), sendable)
    for i in range(len(newest)):
        region = bits[newest[i] + 1 - sendable[i] : newest[i] + 1]
        assert words[i] == policy.parse_newest_first(region, int(sendable[i])), i


@pytest.mark.parametrize("run", [simulate_policy, simulate_erasure])
def test_stale_pick_in_policy_file_fails_before_first_slot(fig1, tmp_path, monkeypatch, run):
    sol = policy_iteration(fig1, 1.0)
    path = tmp_path / "pol.json"
    # the all-v_min state of level K sends its oldest packet: chain-structured, but stale
    sol.actions[sol.K][0] = 1
    sol.to_json(str(path))
    edited = PolicySolution.from_json(str(path), fig1)
    assert edited.actions[sol.K][0] == 1

    def loop(*args):
        raise AssertionError("the simulation loop started")

    monkeypatch.setattr(sim, "_run", loop)
    monkeypatch.setattr(sim, "_walk", loop)
    with pytest.raises(RuntimeError, match=r"infeasible action 1 for buffer \[1.0, 1.0"):
        run(SimConfig(horizon=10_000, seed=0, model=fig1), edited)


# seeds fixed before any run; criterion 07's gate: 4 standard errors of d + eta * delta_e
@pytest.mark.parametrize(
    "model, eta, seed",
    [
        (THREE_GEO, 0.5, 101),
        (Model(THREE_GEO.v, FinitePMF((0.3, 0.4, 0.3))), 0.5, 102),
    ],
    ids=["three-level-geometric", "three-level-finite-pmf"],
)
def test_solver_vs_simulator_beyond_binary(model, eta, seed):
    sol = policy_iteration(model, eta)
    res = simulate_policy(SimConfig(horizon=1_000_000, seed=seed, model=model), sol)
    assert abs(res.d + eta * res.delta_e - sol.lam) < 4 * res.combined_se(eta)


def test_table_route_rejects_other_values(fig1):
    other = Model(ImportanceDist((1.0, 2.0), (0.5, 0.5)), Geometric(0.2))
    with pytest.raises(ValueError, match="policy values"):
        simulate_policy(SimConfig(horizon=10_000, seed=0, model=other), policy_iteration(fig1, 1.0))


def _level3(edits):
    acts = np.full(8, 3, dtype=np.int32)  # send-latest at level 3
    for i, s in edits.items():
        acts[i] = s
    return acts


def _run_table(model, actions):
    """simulate_policy of a bare table; its checks run before the first slot."""
    return simulate_policy(SimConfig(horizon=10_000, seed=0, model=model), WindowTable(model.v.values, actions))


def _table3(level3, level2=(2, 2, 2, 2)):
    """A K=3 table over two values: send-latest at levels 0 and 1, then ``level2`` and ``level3``."""
    return [np.zeros(1, np.int32), np.ones(2, np.int32), np.asarray(level2), level3]


@pytest.mark.parametrize(
    "actions, err, msg",
    [
        (_table3(_level3({5: 0})), ValueError, "action table level 3 is not chain-structured at state (20.0, 1.0, 20.0)"),
        (_table3(_level3({6: 4})), ValueError, "action table level 3 is not chain-structured at state (20.0, 20.0, 1.0)"),
        (_table3(np.full(7, 3, dtype=np.int32)), ValueError, "action table level 3 has shape (7,), expected (8,)"),
        (_table3(_level3({1: 1})), RuntimeError, "policy table has infeasible action 1 for buffer [1.0, 1.0, 20.0]"),
        # [1.0, 1.0] sends its stale oldest, so its children [x, 1.0, 1.0] chain to a stale middle pick
        (_table3(_level3({0: 2, 4: 2}), (1, 2, 2, 2)), RuntimeError, "policy table has infeasible action 1 for buffer [1.0, 1.0]"),
        (_table3(_level3({1: 1, 7: 0})), ValueError, "action table level 3 is not chain-structured at state (20.0, 20.0, 20.0)"),
        (_table3(_level3({6: 9, 4: 2, 3: 0})), ValueError, "action table level 3 is not chain-structured at state (1.0, 20.0, 20.0)"),
    ],
    ids=[
        "s-below-1", "s-above-l", "wrong-shape", "stale-oldest",
        "stale-middle", "chain-before-stale", "first-of-three",
    ],
)
def test_check_table_level_messages(fig1, actions, err, msg):
    # the table route's checks: the solver's chain-table check, then no stale oldest pick
    with pytest.raises(err) as info:
        _run_table(fig1, actions)
    assert str(info.value) == msg
    _run_table(fig1, _table3(_level3({2: 2, 3: 2, 5: 1, 6: 1, 7: 1}), (2, 2, 1, 1)))  # fresh picks pass


@pytest.mark.parametrize("model", [Model(ImportanceDist((1.0, 20.0), (0.7, 0.3)), Geometric(0.2)), THREE_GEO], ids=["m2-l8", "m3-l6"])
def test_check_table_level_stale_pick_at_every_depth(model):
    # a chain state picks entry s - 1 (oldest first) when its ancestor of length l - s + 1 sends its
    # oldest; that ancestor, whose oldest entry is the picked one, is the state the check names
    values, m = model.v.values, model.v.size
    l = 8 if m == 2 else 6
    tree = StateTree(model, l)
    for s in range(1, l):
        digits = [m - 1] * l  # oldest first: every entry of the top value ...
        for stale in (False, True):
            digits[s - 1] = 0 if stale else m - 1  # ... or a v_min packet at the pick
            takes = [None] * (l + 1)
            takes[l - s + 1] = np.arange(m ** (l - s + 1)) == np.ravel_multi_index(digits[s - 1 :], (m,) * (l - s + 1))
            actions = solver._chain_actions(tree, takes)
            assert actions[l][np.ravel_multi_index(digits, (m,) * l)] == s
            if not stale:
                _run_table(model, actions)
                continue
            with pytest.raises(RuntimeError) as info:
                _run_table(model, actions)
            entries = [values[d] for d in digits[s - 1 :]]
            assert str(info.value) == f"policy table has infeasible action 1 for buffer {entries}"


def test_check_table_level_rejects_non_integer_actions(fig1):
    with pytest.raises(ValueError, match=r"^action table level 2 has dtype float64, expected integers$"):
        _run_table(fig1, _table3(_level3({}), np.full(4, 2.0)))


def test_deep_table_is_read_in_place(fig1):
    # the S1 K=23 table is 64 MB; a 10^4-slot run reads at most 10^4 entries of it
    table = window_table(fig1, "S1", 23)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        simulate_policy(SimConfig(horizon=10_000, seed=0, model=fig1), table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 32 << 20


class _TopDraws:
    """A generator stub whose every uniform is the largest double below 1."""

    def random(self, size=None, *, out=None):
        out = np.empty(size) if out is None else out
        out[...] = np.nextafter(1.0, 0.0)
        return out


def test_top_draw_stays_in_finite_pmf_support():
    ten = (0.1,) * 10
    assert np.cumsum(ten)[-1] <= np.nextafter(1.0, 0.0)  # rounded down: a top draw reaches past it
    model = Model(ImportanceDist(tuple(range(1, 11)), ten), FinitePMF(ten))
    assert sim._speak_slots(model, _TopDraws(), 100).tolist() == list(range(10, 101, 10))
    assert sim._draw_arrival_digits(model, _TopDraws(), 100).tolist() == [9] * 100


@pytest.mark.parametrize("probs", [(0.7, 0.3), (0.4, 0.0, 0.6), (0.1,) * 10, (1 / 64,) * 64])
def test_inverse_cdf_matches_clipped_searchsorted(probs):
    """Counting the cumulative sums <= u draws what searchsorted draws, ties and the top draw included."""
    cum = np.cumsum(probs)
    edges = np.concatenate((cum, np.nextafter(cum, 0.0), [0.0, np.nextafter(1.0, 0.0)]))
    u = np.concatenate((np.random.default_rng(0).random(10_000), edges[edges < 1.0]))
    want = np.minimum(np.searchsorted(cum, u, side="right"), len(cum) - 1)
    assert np.array_equal(sim._inverse_cdf(probs, u, np.empty(len(u), np.uint8)), want)


@pytest.mark.parametrize("length, action", [(7, 8), (5, 0), ("cap", -1)])
def test_length_table_checked_before_first_slot(fig1, monkeypatch, length, action):
    src = BinarySource.from_model(fig1, 3)
    sol = bi_policy_iteration(src, 0.2)
    length = sol.L_cap if length == "cap" else length
    actions = sol.actions.copy()
    actions[length] = action
    policy = dataclasses.replace(sol, actions=actions)

    def walk(*args):
        raise AssertionError("the simulation walk started")

    monkeypatch.setattr(sim, "_walk", walk)
    with pytest.raises(RuntimeError) as info:
        simulate_bit_policy(SimConfig(horizon=10_000, seed=0), src, policy)
    assert str(info.value) == f"policy returned infeasible action {action} for length {length}"


# tracemalloc peak, in MB, of each sim-2e5 benchmark kind through cli.main at
# 2*10^5 slots and seed 0, after a warm-up run: the lowest of six readings by
# this test at commit 0601238 (3.2468, 3.2473, 3.7574, 2.0360), rounded down.
# That simulator drew horizon-long float64 arrays, read tables through a
# per-delivery select and gave S3 an object arrivals list.
SIM_2E5_PEAK_MB = {"direct": 3.24, "erasure": 3.24, "s3": 3.75, "bits": 2.03}


def _sim_2e5_peaks(fig1, work):
    """{kind: tracemalloc peak in MB} of the four sim-2e5 kinds, run as the benchmark runs them."""
    model = work / "model.json"
    model.write_text(json.dumps(fig1.to_config()))
    policy = work / "policy.json"
    policy_iteration(fig1, 1.0).to_json(str(policy))
    base = ["simulate", "--model", str(model), "--horizon", "200000", "--seed", "0"]
    kinds = {
        "direct": ["--policy", str(policy), "--mode", "direct"],
        "erasure": ["--policy", str(policy), "--mode", "erasure"],
        "s3": ["--strategy", "S3", "--k", "6"],
        "bits": ["--mode", "bits", "--n-bits", "3", "--tau", "3", "--tunstall"],
    }
    peaks = {}
    for kind, args in kinds.items():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(base + args) == 0  # warm-up: lazy imports and caches
            tracemalloc.start()
            try:
                assert cli.main(base + args) == 0
                peaks[kind] = tracemalloc.get_traced_memory()[1] / 1e6
            finally:
                tracemalloc.stop()
    return peaks


def test_sim_2e5_memory_does_not_grow(fig1, tmp_path):
    peaks = _sim_2e5_peaks(fig1, tmp_path)
    assert all(peaks[kind] <= bound for kind, bound in SIM_2E5_PEAK_MB.items()), peaks
