"""Command-line surface: tradeoff, strategies, bufferignorant, simulate, verify.

Curves are written as CSV, scalar results as JSON; there is no plotting
here.  Every command is deterministic given its arguments and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from .bufferignorant import (
    BinarySource,
    BitCurvePoint,
    PlainThresholdBitPolicy,
    TunstallThresholdBitPolicy,
    threshold_point,
    tunstall_build,
    tunstall_threshold_point,
    write_bi_csv,
)
from .model import Model
from .sim import SimConfig, simulate_bit_policy, simulate_erasure, simulate_policy
from .solver import PolicySolution, policy_iteration, sweep_eta
from .strategies import (
    S3Policy,
    StrategyCurvePoint,
    strategy_curve,
    window_table,
    write_curve_csv,
)
from .verify import print_report, run_battery

USAGE_ERROR = 2


class UsageError(Exception):
    pass


def _load_model(path: str) -> Model:
    if not os.path.isfile(path):
        raise UsageError(f"model file not found: {path}")
    try:
        return Model.from_json(path)
    except (ValueError, json.JSONDecodeError) as exc:
        raise UsageError(f"bad model file {path}: {exc}") from exc


def _parse_range(text: str, what: str) -> range:
    try:
        lo, hi = (int(x) for x in text.split(":"))
    except ValueError:
        raise UsageError(f"{what} must look like A:B, got {text!r}") from None
    if hi < lo:
        raise UsageError(f"{what} is empty: {text!r}")
    return range(lo, hi + 1)


def _parse_etas(args, model: Model) -> list[float]:
    if args.eta_list is not None and args.eta_grid is not None:
        raise UsageError("--eta-list and --eta-grid both choose the eta values; give one")
    if args.eta_list:
        try:
            etas = sorted({float(x) for x in args.eta_list.split(",") if x.strip()}, reverse=True)
        except ValueError:
            raise UsageError(f"bad --eta-list {args.eta_list!r}") from None
    elif args.eta_grid:
        try:
            start, stop, num = args.eta_grid.split(":")
            etas = list(np.geomspace(float(start), float(stop), int(num)))
        except ValueError:
            raise UsageError(f"--eta-grid must be START:STOP:NUM, got {args.eta_grid!r}") from None
        etas = sorted(set(etas), reverse=True)
    else:
        raise UsageError("tradeoff needs --eta-list or --eta-grid")
    if not etas:
        raise UsageError("empty eta grid")
    if not all(0 < e <= model.eta_max() + 1e-12 for e in etas):
        raise UsageError(f"eta values must lie in (0, eta_max={model.eta_max():.6g}]")
    return etas


def cmd_tradeoff(args) -> int:
    model = _load_model(args.model)
    etas = _parse_etas(args, model)
    fresh = not os.path.isdir(args.out)
    os.makedirs(args.out, exist_ok=True)  # an unwritable --out fails before the sweep
    curve = sweep_eta(model, etas)
    for eta, msg in curve.failures:
        print(f"warning: eta={eta:.6g} skipped: {msg}", file=sys.stderr)
    if not curve.points:
        if fresh:
            os.rmdir(args.out)
        raise RuntimeError(f"none of the {len(etas)} eta values could be solved")
    with open(os.path.join(args.out, "points.csv"), "w", encoding="utf-8") as fh:
        curve.write_points_csv(fh)
    with open(os.path.join(args.out, "converse.csv"), "w", encoding="utf-8") as fh:
        curve.write_converse_csv(fh)
    if curve.exact_until is not None:
        print(f"exact_until delta_e = {curve.exact_until:.12g}")
    else:
        print("exact_until undefined (fewer than two solved points)")
    return 0


def cmd_strategies(args) -> int:
    model = _load_model(args.model)
    ks = _parse_range(args.k_range, "--k-range")
    names = [s.strip().upper() for s in args.strategies.split(",") if s.strip()]
    points: list[StrategyCurvePoint] = []
    for name in names:
        points.extend(strategy_curve(model, name, ks))
    points.append(StrategyCurvePoint("d_min", 0, 0.0, model.d_min(), np.empty(0)))
    with open(args.out, "w", encoding="utf-8") as fh:
        write_curve_csv(fh, points)
    print(f"wrote {len(points)} rows to {args.out}")
    return 0


def cmd_bufferignorant(args) -> int:
    model = _load_model(args.model)
    try:
        n_list = [int(x) for x in args.n_bits.split(",") if x.strip()]
    except ValueError:
        raise UsageError(f"bad --n-bits {args.n_bits!r}") from None
    if not n_list:
        raise UsageError("empty --n-bits list")
    taus = _parse_range(args.tau_range, "--tau-range")
    rows: list[BitCurvePoint] = []
    for n in n_list:
        src = BinarySource.from_model(model, n)
        for tau in taus:
            pt = threshold_point(src, tau)
            rows.append(BitCurvePoint("bi", n, tau, pt.delta_e, pt.d))
        dic = tunstall_build(src.q, 2**n)
        rows.extend(tunstall_threshold_point(src, tau, dic) for tau in taus)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_bi_csv(fh, rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def _check_simulate_flags(args) -> None:
    """Reject, before any work, ignored flags, a missing --tau, --k or policy file, and other usage errors."""
    packet = [f"--{f}" for f in ("policy", "strategy", "k", "eta") if getattr(args, f) is not None]
    bits = [f for f, on in (("--tau", args.tau is not None), ("--tunstall", args.tunstall)) if on]
    ignored = packet if args.mode == "bits" else bits
    if ignored:
        raise UsageError(f"{ignored[0]} does not apply to {args.mode} mode")
    chosen = [f for f in packet if f != "--k"]
    if len(chosen) > 1:
        raise UsageError(f"{chosen[0]} and {chosen[1]} both choose the policy; give one")
    if args.mode != "bits" and not chosen:
        raise UsageError("simulate needs --policy, --strategy, or --eta (or --tau for bits mode)")
    name = (args.strategy or "send-latest").lower()
    if name not in ("send-latest", "s1", "s2", "s3"):
        raise UsageError(f"unknown strategy {args.strategy!r}")
    if args.k is not None and name == "send-latest":
        raise UsageError("--k applies only to --strategy S1, S2 or S3")
    if args.k is None and name != "send-latest":
        raise UsageError(f"strategy {args.strategy} needs --k")
    if args.mode == "bits" and args.tau is None:
        raise UsageError("bits mode needs --tau")
    if args.policy is not None and not os.path.isfile(args.policy):
        raise UsageError(f"policy file not found: {args.policy}")


def cmd_simulate(args) -> int:
    _check_simulate_flags(args)
    model = _load_model(args.model)
    cfg = SimConfig(horizon=args.horizon, seed=args.seed, model=None if args.mode == "bits" else model)
    if args.out:
        fresh = not os.path.exists(args.out)
        open(args.out, "a").close()  # an unwritable --out fails before the run
        if fresh:
            os.remove(args.out)  # and a run that fails leaves no empty file behind
    if args.mode == "bits":
        src = BinarySource.from_model(model, args.n_bits_int)
        if args.tunstall:
            policy = TunstallThresholdBitPolicy(src, args.tau, tunstall_build(src.q, 2**src.N))
        else:
            policy = PlainThresholdBitPolicy(src, args.tau)
        result = simulate_bit_policy(cfg, src, policy)
    else:
        if args.policy is not None:
            policy = PolicySolution.from_json(args.policy, model)
        elif args.strategy is None:
            policy = policy_iteration(model, args.eta)
        elif args.strategy.lower() == "s3":
            policy = S3Policy(model, args.k)
        else:
            policy = window_table(model, args.strategy, args.k)  # send-latest reads no --k
        run = simulate_erasure if args.mode == "erasure" else simulate_policy
        result = run(cfg, policy)
    doc = json.dumps(result.to_json_dict())
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(doc + "\n")
    print(doc)
    return 0


def cmd_verify(args) -> int:
    model = _load_model(args.model) if args.model else None
    checks = run_battery(model, seed=args.seed, lambda_perturbation=args.perturb_lambda)
    return 0 if print_report(checks) else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="agedist", description="age-distortion tradeoff solver and simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tradeoff", help="sweep eta and write the tradeoff + converse CSVs")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--eta-list", default=None, help="comma-separated eta values")
    p.add_argument("--eta-grid", default=None, help="START:STOP:NUM geometric grid")
    p.set_defaults(fn=cmd_tradeoff)

    p = sub.add_parser("strategies", help="closed-form S1/S2/S3 curves plus the d_min row")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--k-range", default="1:20")
    p.add_argument("--strategies", default="S1,S2,S3")
    p.set_defaults(fn=cmd_strategies)

    p = sub.add_parser("bufferignorant", help="threshold (BI) and Tunstall (BIT) curves")
    p.add_argument("--model", required=True)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--n-bits", default="3,6")
    p.add_argument("--tau-range", default="0:12")
    p.set_defaults(fn=cmd_bufferignorant)

    p = sub.add_parser("simulate", help="Monte Carlo one policy; JSON result")
    p.add_argument("--model", required=True)
    p.add_argument("--mode", choices=("direct", "erasure", "bits"), default="direct")
    p.add_argument("--policy", default=None, help="solved-policy JSON file")
    p.add_argument("--strategy", default=None, help="send-latest, S1, S2 or S3")
    p.add_argument("--k", type=int, default=None, help="window for S1/S2/S3")
    p.add_argument("--eta", type=float, default=None, help="solve then simulate this weight")
    p.add_argument("--tau", type=int, default=None, help="threshold for bits mode")
    p.add_argument("--n-bits", dest="n_bits_int", type=int, default=3)
    p.add_argument("--tunstall", action="store_true")
    p.add_argument("--horizon", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("verify", help="run the desk-scale acceptance battery")
    p.add_argument("--model", default=None)
    p.add_argument("--seed", type=int, default=20240)
    p.add_argument("--perturb-lambda", type=float, default=0.0, help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (UsageError, ValueError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
