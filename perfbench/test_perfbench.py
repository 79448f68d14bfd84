"""Tests of the benchmark itself: output contract, negative control, traced run.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402


def bench(*args, cwd=ROOT):
    argv = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None


def quick(*extra):
    return bench("--workload", "fig1-sweep", "--seed", "3", "--seconds", "0", *extra)


def test_clean_run_reports_every_end_to_end_metric():
    rc, result = quick("--trace", "0")
    assert rc == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(workloads.E2E)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_shifted_reference_fails_the_run():
    rc, result = quick("--trace", "0", "--perturb-reference", "1e-6")
    assert rc != 0
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_traced_run_reports_every_layer_and_matches_policy_iteration():
    rc, result = quick("--trace", "1")
    assert rc == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(workloads.PER_LAYER)
    assert result["metrics"]["solver.b1_final"]["value"] == 63
    assert result["metrics"]["statetree.nodes"]["value"] == 2**20 - 1


def test_simulation_run_checks_every_replication():
    rc, result = bench("--workload", "sim-2e5", "--seed", "3", "--seconds", "0", "--trace", "0")
    assert rc == 0 and result["correct"]
    # 32 set-ups with 3 checks each; warm-up and one timed operation with 4; the pooled gate with 4
    assert result["attempted"] == 32 * 3 + 2 * 4 + 4


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    rc, result = bench("--workload", "fig1-sweep", "--seed", "1", "--seconds", "1", cwd=str(tmp_path))
    assert rc != 0 and result is None


def test_benchmark_json_names_the_same_workloads_and_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in workloads.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == workloads.E2E
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == workloads.PER_LAYER
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        assert set(json.load(fh)) == set(workloads.WORKLOADS)
