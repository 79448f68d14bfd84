"""Write perfbench/reference.json: the answers every benchmark run is checked against.

    python3 perfbench/make_reference.py

The stored file holds the answers of the commit that introduced the
benchmark.  Regenerate it only when a workload is added or changed, never to
make a failing check pass.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # as in run.py, so the answers come from the same arithmetic

import json  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np  # noqa: E402

import workloads as W  # noqa: E402
from agedist import Model, policy_iteration, sweep_eta  # noqa: E402
from agedist.bufferignorant import BinarySource, threshold_point  # noqa: E402
from agedist.strategies import s3_point  # noqa: E402


def build() -> dict:
    fig1 = Model.from_config(W.FIG1)
    start, stop, num = W.ETA_GRID.split(":")
    etas = sorted(set(np.geomspace(float(start), float(stop), int(num))), reverse=True)
    curve = sweep_eta(fig1, etas)
    points = [
        {"eta": p.eta, "lam": p.lam, "delta_e": p.delta_e, "d": p.d, "K": p.K, "b1_size": p.b1_size, "iters": p.iters}
        for p in curve.points
    ]
    policy = W.solution_record(policy_iteration(fig1, W.SIM_ETA))
    s3 = s3_point(fig1, W.S3_K)
    plain = threshold_point(BinarySource.from_model(fig1, W.BITS_N), W.BITS_TAU)
    return {
        "fig1-sweep": {"points": points},
        "sim-2e5": {
            "policy": policy,
            "s3": {"delta_e": s3.delta_e, "d": s3.d},
            "bits": {"delta_e": plain.delta_e, "d": plain.d},
        },
    }


if __name__ == "__main__":
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(build(), fh, indent=1)
        fh.write("\n")
