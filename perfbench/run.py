"""Run one agedist benchmark workload, or all of them.

    python3 perfbench/run.py --workload fig1-sweep --seed 1 --seconds 56 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 56

Run from the root of a source checkout: the library is imported from
``src/`` next to this directory, never from an installed copy.  One
workload runs in one process.  With ``--trace 0`` the last stdout line is a
JSON object with the end-to-end metrics; with ``--trace 1`` it carries the
per-layer metrics of a separate traced run.  The exit code is nonzero when
any output misses its reference.  ``perfbench/README.md`` explains the
workloads and metrics.
"""

import os

# One BLAS thread, set before numpy loads: numpy's OpenBLAS would otherwise
# start one thread per core and the timings would depend on the machine's load.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import workloads  # noqa: E402  (imports numpy, so after the BLAS pin)

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
SETUPS = 32  # per run; setup_s is their median
MODULES = ("model", "statetree", "solver", "sim", "strategies", "bufferignorant", "cli")
CHILD_TIMEOUT_S = 180


def fresh_import():
    """Import agedist from src/ afresh, dropping any earlier import of it."""
    for name in [m for m in sys.modules if m == "agedist" or m.startswith("agedist.")]:
        del sys.modules[name]
    pkg = importlib.import_module("agedist")
    if not os.path.abspath(pkg.__file__).startswith(SRC + os.sep):
        raise RuntimeError(f"agedist imported from {pkg.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"agedist.{m}") for m in MODULES})


def load_reference(name: str, path, delta: float) -> dict:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        ref = json.load(fh)[name]
    if delta:
        *head, last = path
        node = ref
        for key in head:
            node = node[key]
        node[last] += delta
    return ref


def environment(seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_workload(wl, args) -> dict:
    ref = load_reference(wl.name, wl.perturb_path, args.perturb_reference)
    work = os.path.join(HERE, ".work", f"{wl.name}-{os.getpid()}")
    os.makedirs(work)
    attempted = failed = 0
    setup_s, parse_s = [], []

    def set_up():
        nonlocal attempted, failed
        t0 = time.perf_counter()
        inp = wl.setup(fresh_import(), work, args.seed, ref)
        setup_s.append(time.perf_counter() - t0)
        parse_s.append(inp.parse_s)
        attempted += inp.counts[0]
        failed += inp.counts[1]
        return inp

    def operate(trace: bool):
        """One checked operation: its seconds, or its layers when tracing."""
        nonlocal attempted, failed
        try:
            if trace:
                sample, a, f = wl.trace(inp, ref)
            else:
                t0 = time.perf_counter()
                out = wl.run(inp)
                sample = time.perf_counter() - t0
                a, f = wl.check(inp, out, ref)
        except Exception:  # an operation that raises counts as failed
            traceback.print_exc()
            sample, a, f = ({} if trace else float("nan")), 1, 1
        attempted += a
        failed += f
        return sample

    try:
        inp = set_up()
        operate(trace=False)  # warm-up, checked but not reported: first-call costs stay out of the median
        samples, laps = [], []
        start = time.perf_counter()
        # Stop before an operation would run past --seconds, so that a run's
        # length does not depend on how long its last operation takes.
        while not samples or time.perf_counter() - start + statistics.median(laps) <= args.seconds:
            lap0 = time.perf_counter()
            # The other set-ups are spread over the run, so that their median
            # sees the same machine as the operations'; their inputs are dropped.
            done = 1.0 if args.seconds <= 0 else min(1.0, (lap0 - start) / args.seconds)
            while len(setup_s) < SETUPS * done:
                set_up()
            samples.append(operate(args.trace))
            laps.append(time.perf_counter() - lap0)
        while len(setup_s) < SETUPS:
            set_up()
        try:
            a, f = wl.finish(inp, ref)
        except Exception:
            traceback.print_exc()
            a = f = 1
        attempted += a
        failed += f
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = {
            name: {"value": statistics.median(s.get(name, 0) for s in samples), "unit": unit}
            for name, unit in workloads.PER_LAYER
        }
        metrics["model.parse_s"]["value"] = statistics.median(parse_s)
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = {
            "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
            "op_s": {"value": statistics.median(samples), "unit": "s"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        }
        print("op_s " + " ".join(f"{t:.4f}" for t in samples))
    print(f"ops {len(samples)}  failed_frac {failed / attempted:.6g} ({failed}/{attempted})")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name and unit."""
    ok = True
    for name in workloads.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name]
        argv += ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode not in (0, 1) or not lines:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(lines[-1])
        ok &= proc.returncode == 0 and result["correct"]
        frac = result["failed"] / result["attempted"]
        print(f"{name:15s} failed_frac {frac:.6g} ({result['failed']}/{result['attempted']})")
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:34s} {m['value']:.10g} {m['unit']}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # negative control: shift one stored reference value by this amount
    parser.add_argument("--perturb-reference", type=float, default=0.0, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.workload == "all":
        return run_all(args)
    if not os.path.isfile(os.path.join(SRC, "agedist", "__init__.py")):
        print(f"error: no agedist sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print("env " + json.dumps(environment(args.seed)))
    result = run_workload(wl, args)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
