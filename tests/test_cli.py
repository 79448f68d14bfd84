import json
import os

import pytest

from agedist.cli import main


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


def test_tradeoff_skips_depths_beyond_cap(fig1_file, tmp_path, capsys):
    out = str(tmp_path / "cap")
    rc = main(["tradeoff", "--model", fig1_file, "--out", out, "--eta-list", "3.8,0.05,1e-320"])
    assert rc == 0
    err = capsys.readouterr().err
    assert "skipped" in err
    assert "skipped: eta=1e-320 is too small" in err  # K(eta) overflows a float
    assert len(_lines(os.path.join(out, "points.csv"))) == 2  # only eta = 3.8 solved


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


def test_bufferignorant_curves(fig1_file, tmp_path):
    out = str(tmp_path / "bi.csv")
    rc = main(
        [
            "bufferignorant",
            "--model",
            fig1_file,
            "--out",
            out,
            "--n-bits",
            "3",
            "--tau-range",
            "0:2",
            "--horizon",
            "60000",
            "--seed",
            "1",
        ]
    )
    assert rc == 0
    lines = _lines(out)
    assert lines[0] == "variant,N,tau,delta_e,d"
    assert sum(ln.startswith("bi,3,") for ln in lines) == 3
    assert sum(ln.startswith("bit,3,") for ln in lines) == 3
    tau0 = [ln for ln in lines if ln.startswith("bi,3,0,")][0]
    assert float(tau0.split(",")[3]) == 0.0


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


def test_simulate_usage_errors(fig1_file, tmp_path):
    assert main(["simulate", "--model", fig1_file, "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", fig1_file, "--strategy", "S1", "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", fig1_file, "--strategy", "nope", "--k", "2"]) == 2
    assert main(["simulate", "--model", fig1_file, "--mode", "bits", "--horizon", "40000"]) == 2
    assert main(["simulate", "--model", str(tmp_path / "nope.json"), "--eta", "1"]) == 2


def test_verify_pass_and_negative_control(fig1_file, capsys):
    rc = main(["verify", "--model", fig1_file])
    out = capsys.readouterr().out
    assert rc == 0
    assert "all checks passed" in out
    rc = main(["verify", "--model", fig1_file, "--perturb-lambda", "0.05"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "FAIL" in out and "dominance" in out
