import json
import math
import os
import subprocess
import sys
import time

import pytest

import agedist
from agedist import policy_iteration
from agedist.bufferignorant import (
    BinarySource,
    PlainThresholdBitPolicy,
    tunstall_build,
    tunstall_threshold_point,
)
from agedist.cli import build_parser, main
from agedist.sim import SimConfig, simulate_bit_policy


def _lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read().splitlines()


def test_tradeoff_writes_consistent_csvs(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "sweep")
    rc = main(
        ["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", "3.8,2.0,1.0"]
    )
    assert rc == 0
    assert "exact_until" in capsys.readouterr().out
    points = _lines(os.path.join(out, "points.csv"))
    converse = _lines(os.path.join(out, "converse.csv"))
    assert points[0] == "eta,lambda,delta_e,d,K,b1_size,iters"
    assert converse[0] == "eta,intercept"
    assert len(points) == len(converse) == 4
    for prow, crow in zip(points[1:], converse[1:]):
        eta, lam, de, d = (float(x) for x in prow.split(",")[:4])
        ceta, intercept = (float(x) for x in crow.split(","))
        assert ceta == eta
        assert d + eta * de == pytest.approx(intercept, abs=1e-9)


def test_tradeoff_grid_and_validation(fig1_file, tmp_path):
    out = str(tmp_path / "sweep2")
    assert main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-grid", "3.8:1.0:5"]) == 0
    assert len(_lines(os.path.join(out, "points.csv"))) == 6
    # eta above eta_max is a usage error
    assert main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", "4.5"]) == 2
    assert main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", ""]) == 2
    assert main(["tradeoff", "--model", fig1_file, "--out", out]) == 2
    # non-finite etas are usage errors too
    for bad in ("nan", "1.0,nan", "inf", "1.0,-inf"):
        assert main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", bad]) == 2


def test_tradeoff_rejects_non_finite_model(tmp_path, capsys):
    path = tmp_path / "nan.json"
    path.write_text('{"values": [1.0, 20.0], "probs": [NaN, 0.3], "z": {"geometric": 0.2}}')
    out = str(tmp_path / "out")
    assert main(["tradeoff", "--model", str(path), "--out", out, "--eta-list", "1.0"]) == 2
    assert "importance probabilities must be finite" in capsys.readouterr().err
    assert not os.path.exists(out)


@pytest.mark.parametrize(
    "field, value, match",
    [("values", 5, '"values"'), ("z", 5, '"z"'), ("z", {"pmf": 5}, '"z.pmf"'),
     ("z", {"geometric": [0.2]}, "geometric parameter")],
)
@pytest.mark.parametrize("command", ["strategies", "tradeoff", "simulate"])
def test_model_file_field_types_rejected(fig1, tmp_path, capsys, field, value, match, command):
    cfg = fig1.to_config()
    cfg[field] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(cfg))
    extra = {
        "strategies": ["--out", str(tmp_path / "s.csv")],
        "tradeoff": ["--out", str(tmp_path / "t"), "--eta-list", "1.0"],
        "simulate": ["--eta", "1.0", "--horizon", "20000"],
    }[command]
    assert main([command, "--model", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and match in err and "Traceback" not in err


def test_tradeoff_skips_depths_beyond_cap(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "cap")
    rc = main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", "3.8,0.05,1e-320"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    assert "skipped: eta=1e-320 is too small" in err  # K(eta) overflows a float
    assert len(_lines(os.path.join(out, "points.csv"))) == 2  # only eta = 3.8 solved


def test_tradeoff_fails_when_no_eta_is_solved(fig1_file, tmp_path, capsys):
    out = tmp_path / "none"
    rc = main(["tradeoff", "--model", fig1_file, "--out", str(out), "--eta-list", "0.01,0.02"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.count("skipped: K=") == 2  # both need K > 23
    assert err.splitlines()[-1] == "error: none of the 2 eta values could be solved"
    assert not out.exists()


def test_tradeoff_rejects_both_eta_flags(fig1_file, tmp_path, capsys):
    out = tmp_path / "both"
    args = ["tradeoff", "--model", fig1_file, "--out", str(out), "--eta-list", "1", "--eta-grid", "1:0.5:3"]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --eta-list and --eta-grid both choose the eta values; give one\n"
    assert not out.exists()


def test_tradeoff_depth_cap_warning_is_short(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "tiny")
    assert main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", "3.8,1e-300"]) == 0
    (warning,) = capsys.readouterr().err.splitlines()
    assert warning.startswith("warning: eta=1e-300 skipped: K=3.80e+300 exceeds the dense-storage cap 23")
    assert len(warning) < 200


def test_strategies_csv_with_floor_row(fig1_file, tmp_path):
    out = str(tmp_path / "strat.csv")
    rc = main(["strategies", "--model", fig1_file, "--out", out, "--k-range", "1:1"])
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "strategy,K,delta_e,d"
    assert len(lines) == 5  # S1, S2, S3 at K=1 plus the floor row
    floor = [ln for ln in lines if ln.startswith("d_min,")]
    assert len(floor) == 1
    assert float(floor[0].split(",")[-1]) == pytest.approx(2.7, abs=1e-12)


def test_strategies_rejects_bad_model(tmp_path):
    bad = tmp_path / "three.json"
    bad.write_text(
        json.dumps({"values": [1, 2, 3], "probs": [0.5, 0.3, 0.2], "z": {"geometric": 0.2}})
    )
    out = str(tmp_path / "x.csv")
    assert main(["strategies", "--model", str(bad), "--out", out]) == 1


def test_strategies_reject_p_one_by_name(tmp_path, capsys):
    # every slot speaks: the closed forms divide by 1 - p
    path = tmp_path / "p1.json"
    path.write_text(json.dumps({"values": [1, 20], "probs": [0.7, 0.3], "z": {"geometric": 1.0}}))
    assert main(["strategies", "--model", str(path), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == "error: closed-form strategies need p < 1, got p=1.0\n"


def test_bufferignorant_curves(fig1, fig1_file, tmp_path):
    args = ["bufferignorant", "--model", fig1_file, "--n-bits", "3", "--tau-range", "0:2"]
    outs = [tmp_path / "bi1.csv", tmp_path / "bi2.csv"]
    for out in outs:
        assert main([*args, "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()
    lines = _lines(outs[0])
    assert lines[0] == "variant,N,tau,delta_e,d"
    assert sum(ln.startswith("bi,3,") for ln in lines) == 3
    tau0 = [ln for ln in lines if ln.startswith("bi,3,0,")][0]
    assert float(tau0.split(",")[3]) == 0.0
    src = BinarySource.from_model(fig1, 3)
    dic = tunstall_build(src.q, 2**3)
    bits = [ln for ln in lines if ln.startswith("bit,")]
    exact = [tunstall_threshold_point(src, tau, dic) for tau in range(3)]
    assert bits == [f"bit,3,{pt.tau},{pt.delta_e:.12g},{pt.d:.12g}" for pt in exact]
    for gone in (["--horizon", "60000"], ["--seed", "1"]):
        with pytest.raises(SystemExit) as exc:
            main([*args, "--out", str(outs[0]), *gone])
        assert exc.value.code == 2


def test_main_carries_nothing_between_calls(fig1, fig1_file, capsys):
    """The parser is built once per process; every call still starts from the defaults."""
    assert build_parser() is build_parser()
    bits = ["simulate", "--model", fig1_file, "--mode", "bits", "--tau", "2", "--horizon", "20000"]
    assert main([*bits, "--tunstall"]) == 0
    coded = json.loads(capsys.readouterr().out)
    assert main(bits) == 0
    plain = json.loads(capsys.readouterr().out)
    src = BinarySource.from_model(fig1, 3)
    policy = PlainThresholdBitPolicy(src, 2)
    expect = simulate_bit_policy(SimConfig(horizon=20000, seed=0), src, policy)
    assert plain == json.loads(json.dumps(expect.to_json_dict()))
    assert coded != plain
    s1 = ["simulate", "--model", fig1_file, "--horizon", "20000", "--strategy"]
    assert main([*s1, "S1", "--k", "4"]) == 0
    capsys.readouterr()
    assert main([*s1, "S3"]) == 2
    assert "strategy S3 needs --k" in capsys.readouterr().err
    args = build_parser().parse_args(["simulate", "--model", fig1_file])
    assert (args.horizon, args.k, args.strategy, args.tunstall) == (1_000_000, None, None, False)


def test_simulate_json_and_reproducibility(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "r.json")
    args = [
        "simulate",
        "--model",
        fig1_file,
        "--eta",
        "1.0",
        "--horizon",
        "40000",
        "--seed",
        "5",
        "--out",
        out,
    ]
    assert main(args) == 0
    first = capsys.readouterr().out.strip()
    assert json.loads(first) == json.loads(open(out).read())
    assert main(args) == 0
    assert capsys.readouterr().out.strip() == first


def test_simulate_prints_strict_json_when_batches_are_too_few(fig1, tmp_path, capsys):
    """A run that never delivers has no standard errors: they print as null, which strict parsers accept."""
    from agedist import Geometric, Model

    model = tmp_path / "silent.json"
    model.write_text(json.dumps(Model(fig1.v, Geometric(1e-9)).to_config()))
    args = ["simulate", "--model", str(model), "--horizon", "10000", "--seed", "0", "--strategy", "S3", "--k", "6"]
    assert main(args) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    doc = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert doc["se_delta"] is None and doc["se_d"] is None
    assert doc["delta_e"] == doc["d"] == 0.0


def test_simulate_policy_file_and_strategy(fig1, fig1_file, tmp_path, capsys):
    from agedist import policy_iteration

    pol = tmp_path / "pol.json"
    policy_iteration(fig1, 1.0).to_json(str(pol))
    rc = main(
        [
            "simulate", "--model", fig1_file, "--policy", str(pol),
            "--mode", "erasure", "--horizon", "40000", "--seed", "2",
        ]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"delta_e", "se_delta", "d", "se_d", "horizon", "seed"}
    rc = main(
        [
            "simulate", "--model", fig1_file, "--strategy", "S2", "--k", "4",
            "--horizon", "40000", "--seed", "2",
        ]
    )
    assert rc == 0
    rc = main(
        [
            "simulate", "--model", fig1_file, "--mode", "bits", "--tau", "2",
            "--n-bits", "3", "--horizon", "40000", "--seed", "2", "--tunstall",
        ]
    )
    assert rc == 0


def test_simulate_window_table_depth_cap(fig1_file, capsys):
    base = ["simulate", "--model", fig1_file, "--strategy", "S1", "--horizon", "10000"]
    assert main([*base, "--k", "23"]) == 0
    assert json.loads(capsys.readouterr().out)["horizon"] == 10000
    assert main([*base, "--k", "24"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: K=24 exceeds the dense-storage cap 23") and "Traceback" not in err


def test_strategies_large_windows_with_ratio_above_one(tmp_path):
    model = tmp_path / "steep.json"  # r = qbar / pbar = 1.8
    model.write_text(json.dumps({"values": [1, 20], "probs": [0.9, 0.1], "z": {"geometric": 0.5}}))
    out = str(tmp_path / "s.csv")
    assert main(["strategies", "--model", str(model), "--out", out, "--k-range", "1:2000"]) == 0
    rows = _lines(out)[1:]
    assert len(rows) == 3 * 2000 + 1
    assert all(map(math.isfinite, (float(x) for row in rows for x in row.split(",")[2:])))


def test_simulate_usage_errors(fig1_file, tmp_path):
    assert main(["simulate", "--model", fig1_file, "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", fig1_file, "--strategy", "S1", "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", fig1_file, "--strategy", "nope", "--k", "2"]) == 2
    assert main(["simulate", "--model", fig1_file, "--mode", "bits", "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", str(tmp_path / "nope.json"), "--eta", "1"]) == 2


@pytest.mark.parametrize(
    "args, rc",
    [
        (["--strategy", "S9"], 2),
        (["--strategy", "S1"], 2),
        (["--policy", "missing.json"], 2),
        ([], 2),
        (["--policy", "corrupt.json"], 1),
    ],
    ids=["unknown-strategy", "no-k", "missing-policy", "no-policy", "corrupt-policy"],
)
def test_failed_simulate_leaves_no_output_file(fig1_file, tmp_path, capsys, args, rc):
    # a failed run leaves no new --out behind, and an existing one as it was
    (tmp_path / "corrupt.json").write_text("{not json")
    args = [str(tmp_path / a) if a.endswith(".json") else a for a in args]
    base = ["simulate", "--model", fig1_file, "--horizon", "10000", *args]
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    assert main([*base, "--out", str(new)]) == rc
    assert not new.exists()
    old.write_text("kept\n")
    assert main([*base, "--out", str(old)]) == rc
    assert old.read_text() == "kept\n"
    assert capsys.readouterr().err.count("error: ") == 2


@pytest.mark.parametrize(
    "args",
    [
        ["--mode", "bits", "--tau", "-1", "--tunstall"],
        ["--mode", "bits", "--tau", "-1"],
        ["--strategy", "S3", "--k", "0"],
        ["--strategy", "S3", "--k", "-2"],
        ["--strategy", "S1", "--k", "0"],
    ],
)
def test_simulate_rejects_bad_window_or_threshold(fig1_file, capsys, args):
    rc = main(["simulate", "--model", fig1_file, "--horizon", "20000", *args])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize(
    "args, flag",
    [
        (["--mode", "bits", "--tau", "2", "--policy", "P.json"], "--policy does not apply to bits mode"),
        (["--mode", "bits", "--tau", "2", "--strategy", "S1"], "--strategy does not apply to bits mode"),
        (["--mode", "bits", "--tau", "2", "--k", "3"], "--k does not apply to bits mode"),
        (["--mode", "bits", "--tau", "2", "--eta", "1"], "--eta does not apply to bits mode"),
        (["--eta", "1", "--tau", "0"], "--tau does not apply to direct mode"),
        (["--mode", "erasure", "--eta", "1", "--tunstall"], "--tunstall does not apply to erasure mode"),
        (["--policy", "P.json", "--strategy", "S1"], "--policy and --strategy both choose the policy"),
        (["--strategy", "S1", "--k", "3", "--eta", "1"], "--strategy and --eta both choose the policy"),
        (["--policy", "P.json", "--eta", "1"], "--policy and --eta both choose the policy"),
        (["--policy", "P.json", "--k", "99"], "--k applies only to --strategy S1, S2 or S3"),
        (["--strategy", "send-latest", "--k", "99"], "--k applies only to --strategy S1, S2 or S3"),
        (["--eta", "1", "--k", "99"], "--k applies only to --strategy S1, S2 or S3"),
    ],
)
def test_simulate_rejects_ignored_flags(fig1_file, capsys, args, flag):
    rc = main(["simulate", "--model", fig1_file, "--horizon", "20000", *args])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error: {flag}")


@pytest.mark.parametrize(
    "field, value, match",
    [("eta", float("nan"), "eta must be finite"), ("lambda", float("inf"), "lambda=inf"),
     ("K", None, "no K field"), ("model_hash", None, "no model_hash field"),
     ("values", 5, "values must be a list"), ("actions", 5, "actions must be a list"),
     ("actions", [5], "actions must be a list"), ("K", [3], "K must be an integer")],
)
def test_simulate_rejects_bad_policy_file(fig1, fig1_file, tmp_path, capsys, field, value, match):
    from agedist import policy_iteration

    pol = tmp_path / "pol.json"
    policy_iteration(fig1, 1.0).to_json(str(pol))
    doc = json.loads(pol.read_text())
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    pol.write_text(json.dumps(doc))
    rc = main(["simulate", "--model", fig1_file, "--policy", str(pol), "--horizon", "20000"])
    err = capsys.readouterr().err
    assert rc != 0
    assert err.startswith("error: ") and match in err and "Traceback" not in err


def test_verify_pass_and_negative_control(fig1_file, capsys):
    rc = main(["verify", "--model", fig1_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    rc = main(["verify", "--model", fig1_file, "--perturb-lambda", "0.05"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "dominance" in out


@pytest.mark.parametrize(
    "cfg, skipped",
    [
        ({"values": [1, 5, 20], "probs": [0.5, 0.3, 0.2], "z": {"geometric": 0.2}}, ["dominance"]),
        ({"values": [1, 20], "probs": [0.7, 0.3], "z": {"pmf": [0.1, 0.3, 0.6]}}, ["dominance", "erasure"]),
        # eta_max = 0, and every run has delta_e = 0 with a standard error of 0
        ({"values": [3.0], "probs": [1.0], "z": {"geometric": 0.2}}, ["eta_max", "threshold flip", "dominance"]),
        # every slot speaks: the closed forms need p < 1, both simulation gates see SE 0,
        # and the solve stops at depth 1
        ({"values": [1, 20], "probs": [0.7, 0.3], "z": {"geometric": 1.0}}, ["dominance"]),
    ],
    ids=["three-values", "finite-pmf", "one-value", "p-one"],
)
def test_verify_skips_closed_form_checks_on_other_models(tmp_path, capsys, cfg, skipped):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--model", str(path)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 11 and rows[-1] == "all checks passed"
    skip_rows = [r for r in rows if "  SKIP  (needs " in r]
    assert len(skip_rows) == len(skipped) and all(s in r for s, r in zip(skipped, skip_rows))
    assert sum("  PASS" in r for r in rows) == 10 - len(skipped)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--eta", "1", "--seed", "-5"],
        ["simulate", "--mode", "bits", "--tau", "3", "--seed", "-5"],
        ["verify", "--seed", "-1"],
    ],
    ids=["simulate", "simulate-bits", "verify"],
)
def test_negative_seed_is_one_error_line(fig1_file, tmp_path, capsys, monkeypatch, argv):
    # rejected before any solve or check runs, with one line naming the seed
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the seed was checked")

    monkeypatch.setattr("agedist.cli.policy_iteration", no_solve)
    monkeypatch.setattr("agedist.verify.policy_iteration", no_solve)
    out = tmp_path / "new.json"
    extra = ["--model", fig1_file] + (["--out", str(out)] if argv[0] == "simulate" else [])
    assert main([*argv, *extra]) == 1
    captured = capsys.readouterr()
    seed = argv[-1]
    assert captured.err == f"error: seed must be a non-negative integer, got {seed}\n"
    assert captured.out == "" and not out.exists()


def test_verify_reports_a_check_that_raises(tmp_path, capsys):
    path = tmp_path / "wide.json"  # K(eta=1) = 200 is past the depth cap
    path.write_text(json.dumps({"values": [1, 1000], "probs": [0.7, 0.3], "z": {"geometric": 0.2}}))
    assert main(["verify", "--model", str(path)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 11 and out[-1] == "FAILURES present"
    failed = [r for r in out if "  FAIL  " in r]
    assert [r.split("  FAIL")[0].strip() for r in failed] == ["solver vs simulator", "erasure equivalence"]
    assert "error: K=200 exceeds the dense-storage cap" in failed[0]


def _not_a_directory(tmp_path):
    """A path under a regular file: no user, root included, can create it."""
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    return str(blocker / "out")


@pytest.mark.parametrize(
    "args",
    [
        ["strategies", "--k-range", "1:2"],
        ["bufferignorant", "--n-bits", "2", "--tau-range", "0:1"],
        ["simulate", "--eta", "1", "--horizon", "10000"],
        ["tradeoff", "--eta-list", "1"],
    ],
)
def test_unwritable_output_is_an_error_line(fig1_file, tmp_path, capsys, monkeypatch, args):
    # the path is checked before the work: no sweep, solve or run starts
    command, *rest = args
    if command in ("simulate", "tradeoff"):
        for name in ("sweep_eta", "policy_iteration", "simulate_policy"):
            monkeypatch.setattr(f"agedist.cli.{name}", lambda *a, name=name: pytest.fail(f"{name} called"))
    rc = main([command, "--model", fig1_file, "--out", _not_a_directory(tmp_path), *rest])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: ") and len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "args",
    [
        ["strategies", "--out", "s.csv"],
        ["bufferignorant", "--out", "b.csv"],
        ["simulate", "--eta", "1"],
        ["tradeoff", "--eta-list", "1", "--out", "t"],
        ["verify"],
    ],
)
def test_model_directory_is_a_usage_error(tmp_path, capsys, args):
    command, *rest = args
    assert main([command, "--model", str(tmp_path), *rest]) == 2
    assert capsys.readouterr().err == f"error: model file not found: {tmp_path}\n"


def test_policy_directory_is_a_usage_error(fig1_file, tmp_path, capsys):
    assert main(["simulate", "--model", fig1_file, "--policy", str(tmp_path), "--horizon", "10000"]) == 2
    assert capsys.readouterr().err == f"error: policy file not found: {tmp_path}\n"


@pytest.mark.parametrize("coded", [[], ["--tunstall"]])
def test_bits_threshold_past_the_horizon(fig1_file, capsys, coded):
    base = ["simulate", "--model", fig1_file, "--mode", "bits", "--horizon", "10000", *coded]
    assert main([*base, "--tau", "10000"]) == 0
    at_horizon = capsys.readouterr().out
    start = time.perf_counter()
    assert main([*base, "--tau", "99999999999"]) == 0  # its rest row stops at the horizon
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out == at_horizon


def test_commands_never_import_numpy_ma(fig1, fig1_file, tmp_path):
    # np.unique imports numpy.ma on its first call, which adds about 1.7 MB to a simulation's resident
    # memory; a fresh process runs the benchmark's tradeoff sweep and one simulation of each kind
    policy = tmp_path / "policy.json"
    policy_iteration(fig1, 1.0).to_json(str(policy))
    sim = ["simulate", "--model", fig1_file, "--horizon", "20000", "--seed", "1"]
    runs = [
        ["tradeoff", "--model", fig1_file, "--out", str(tmp_path / "sweep"), "--eta-grid", "3.8:0.2:24"],
        sim + ["--policy", str(policy), "--mode", "direct"],
        sim + ["--policy", str(policy), "--mode", "erasure"],
        sim + ["--strategy", "S3", "--k", "6"],
        sim + ["--mode", "bits", "--n-bits", "3", "--tau", "3", "--tunstall"],
    ]
    code = (
        "import contextlib, io, json, sys\n"
        "from agedist import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]\n"
        "print(json.dumps([codes, 'numpy.ma' in sys.modules]))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(agedist.__file__)))
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[0] * len(runs), False]
