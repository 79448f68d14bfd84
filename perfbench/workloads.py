"""Workloads of the agedist benchmark: inputs, timed operations, checks, traces.

Every workload has the same five methods:

* ``setup(lib, work, seed, ref)`` builds the inputs of a run.  ``lib`` is a
  freshly imported ``agedist`` (see ``run.fresh_import``), so set-up time
  covers the import.  Reference checks on set-up results are counted too.
* ``run(inp)`` is one timed operation, called as the library's users call it.
* ``check(inp, out, ref)`` compares one operation's output with the stored
  reference and returns ``(attempted, failed)``.  It is not timed.
* ``trace(inp, ref)`` runs one untraced reference operation and one traced
  operation, and returns ``(layers, attempted, failed)``.  Spans are taken
  around calls into the library's public functions, from this file only.
* ``finish(inp, ref)`` makes the checks that need every operation of the
  run, after the last one, and returns ``(attempted, failed)``.

Why each workload exists, which layers it loads and which it bypasses is in
``perfbench/README.md``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import time
from types import SimpleNamespace

import numpy as np

FIG1 = {"values": [1.0, 20.0], "probs": [0.7, 0.3], "z": {"geometric": 0.2}}

ETA_GRID = "3.8:0.2:24"  # 24 warm-started solves, K from 1 to 19
SIM_ETA = 1.0  # the fig1 policy sim-2e5 replays in direct and erasure mode
HORIZON = 200_000  # slots per simulation, the default of `agedist bufferignorant`
S3_K = 6
BITS_N, BITS_TAU = 3, 3

REF_TOL = 1e-9  # relative to max(1, |reference|)
N_SE = 4.0  # simulation gates, as in the acceptance battery
MAX_ITERS = 1000  # the solver's own iteration cap

SOLVE_FIELDS = ("lam", "delta_e", "d", "K", "b1_size", "iters")

E2E = [("setup_s", "s"), ("op_s", "s"), ("peak_rss_mb", "MB")]

PER_LAYER = [
    ("model.parse_s", "s"),
    ("statetree.build_s", "s"),
    ("statetree.nodes", "count"),
    ("solver.evaluate_s", "s"),
    ("solver.components_s", "s"),
    ("solver.improve_s", "s"),
    ("solver.iters", "count"),
    ("solver.actions_changed", "count"),
    ("solver.b1_final", "count"),
    ("solver.improve_useful_ratio", "ratio"),
    ("solver.assembly_entries_computed", "count"),
    ("solver.dense_solve_flops_computed", "count"),
    ("sim.policy_calls", "count"),
    ("sim.policy_s", "s"),
    ("sim.loop_self_s", "s"),
    ("sim.direct_s", "s"),
    ("sim.erasure_s", "s"),
    ("sim.s3_s", "s"),
    ("sim.bits_s", "s"),
    ("strategies.policy_s", "s"),
    ("bi.bits_policy_s", "s"),
    ("cli.io_s", "s"),
    ("trace.overhead_frac", "ratio"),
]


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def close(x: float, ref: float) -> bool:
    return abs(float(x) - float(ref)) <= REF_TOL * max(1.0, abs(float(ref)))


def record_matches(got: dict, ref: dict, fields) -> bool:
    return all(close(got[f], ref[f]) for f in fields)


def actions_digest(actions) -> str:
    h = hashlib.sha256()
    for level in actions:
        h.update(np.asarray(level, dtype=np.int32).tobytes())
    return h.hexdigest()


def solution_record(sol) -> dict:
    return {
        "lam": sol.lam,
        "delta_e": sol.delta_e,
        "d": sol.d,
        "K": sol.K,
        "b1_size": sol.b1_size,
        "iters": sol.iters,
        "actions_sha256": actions_digest(sol.actions),
    }


def solution_ok(sol, ref: dict) -> bool:
    rec = solution_record(sol)
    return record_matches(rec, ref, SOLVE_FIELDS) and rec["actions_sha256"] == ref["actions_sha256"]


def write_model(work: str, cfg: dict) -> str:
    path = os.path.join(work, "model.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    return path


def parse_model(lib, path: str):
    """Model.from_json, with its wall time."""
    t0 = time.perf_counter()
    model = lib.model.Model.from_json(path)
    return model, time.perf_counter() - t0


def call_cli(lib, argv) -> tuple[int, str]:
    """agedist.cli.main in-process; returns (exit code, captured stdout)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = lib.cli.main(argv)
    return rc, buf.getvalue()


@contextlib.contextmanager
def patched(module, name: str, value):
    old = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, old)


class Layers(dict):
    """Per-layer values of one traced operation; absent layers read 0."""

    def add(self, name: str, value: float) -> None:
        self[name] = self.get(name, 0) + value

    def timed(self, name: str, fn, *args):
        t0 = time.perf_counter()
        out = fn(*args)
        self.add(name, time.perf_counter() - t0)
        return out


class Workload:
    def finish(self, inp, ref):
        """Checks over the whole run, after its last operation: (attempted, failed)."""
        return 0, 0


# ---------------------------------------------------------------------------
# packet solver rebuilt from public entry points
# ---------------------------------------------------------------------------


def _chain_actions(tree, actions):
    """Send-latest actions, or ``actions`` extended to ``tree.K`` by the chain rule.

    A fresh level inherits its parent's action plus one, as the warm-started
    sweep does when K grows.
    """
    actions = [np.zeros(1, dtype=np.int32)] if actions is None else list(actions)
    for l in range(len(actions), tree.K + 1):
        parent = np.arange(tree.level_size[l]) % tree.level_size[l - 1]
        actions.append(actions[l - 1][parent] + 1)
    return actions


def _reduced_size(tree, actions) -> int:
    """|B1| + 1: unknowns of the reduced evaluation system."""
    return 1 + sum(int(np.count_nonzero(actions[l] == 1)) for l in range(2, tree.K + 1))


def traced_sweep(lib, model, etas, layers: Layers) -> list:
    """policy_iteration / sweep_eta rebuilt from StateTree, evaluate_policy,
    policy_improve and evaluate_components, with a span around each call.

    Returns one ``(eta, lam, delta_e, d, iters, actions)`` tuple per eta.
    """
    solver = lib.solver
    tree = actions = None
    out = []
    sweeps = useful = 0
    for eta in etas:
        K = model.buffer_bound(eta)
        if tree is None or K > tree.K:
            tree = layers.timed("statetree.build_s", lib.statetree.StateTree, model, K)
            layers["statetree.nodes"] = max(layers.get("statetree.nodes", 0), tree.node_count())
            actions = _chain_actions(tree, actions)
        trie_entries = sum(tree.level_size[1:])
        for it in range(1, MAX_ITERS + 1):
            n = _reduced_size(tree, actions)
            layers.add("solver.assembly_entries_computed", n * trie_entries)
            layers.add("solver.dense_solve_flops_computed", 2 * n**3 / 3)
            lam, h = layers.timed("solver.evaluate_s", solver.evaluate_policy, model, tree, actions, eta)
            new, _ = layers.timed("solver.improve_s", solver.policy_improve, model, tree, h, lam, eta)
            changed = sum(int(np.count_nonzero(a != b)) for a, b in zip(new, actions))
            actions = new
            sweeps += 1
            useful += changed > 0
            layers.add("solver.actions_changed", changed)
            if not changed:
                break
        else:
            raise RuntimeError(f"traced solve did not converge (eta={eta})")
        n = _reduced_size(tree, actions)
        layers.add("solver.assembly_entries_computed", 2 * n * trie_entries)
        layers.add("solver.dense_solve_flops_computed", 2 * (2 * n**3 / 3))
        delta_e, d = layers.timed("solver.components_s", solver.evaluate_components, model, tree)
        layers.add("solver.iters", it)
        layers["solver.b1_final"] = n - 1
        out.append((eta, lam, delta_e, d, it, actions))
    layers["solver.improve_useful_ratio"] = useful / sweeps
    return out


def same_solution(traced, sol) -> bool:
    """Bitwise agreement of a traced solve with a policy_iteration result."""
    eta, lam, delta_e, d, iters, actions = traced
    return (
        eta == sol.eta
        and (lam, delta_e, d, iters) == (sol.lam, sol.delta_e, sol.d, sol.iters)
        and len(actions) == len(sol.actions)
        and all(np.array_equal(a, b) for a, b in zip(actions, sol.actions))
    )


# ---------------------------------------------------------------------------
# solver workloads
# ---------------------------------------------------------------------------


class Fig1Sweep(Workload):
    name = "fig1-sweep"
    why = "agedist tradeoff over 24 warm-started etas on fig1 (K 1..19): deep binary trie, small B1"
    perturb_path = ("points", 0, "lam")

    def setup(self, lib, work, seed, ref):
        path = write_model(work, FIG1)
        model, parse_s = parse_model(lib, path)
        out = os.path.join(work, "sweep")
        argv = ["tradeoff", "--model", path, "--out", out, "--eta-grid", ETA_GRID]
        return SimpleNamespace(lib=lib, model=model, parse_s=parse_s, argv=argv, out=out, counts=(0, 0))

    def run(self, inp):
        return call_cli(inp.lib, inp.argv)[0]

    def check(self, inp, rc, ref):
        expected = ref["points"]
        if rc != 0:
            return len(expected), len(expected)
        with open(os.path.join(inp.out, "points.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()[1:]
        fields = ("eta",) + SOLVE_FIELDS
        rows = [dict(zip(fields, line.split(","))) for line in lines]
        attempted = max(len(expected), len(rows))
        return attempted, attempted - sum(record_matches(g, w, fields) for g, w in zip(rows, expected))

    def trace(self, inp, ref):
        lib = inp.lib
        recorded = []
        sweep_s = []
        real_pi, real_sweep = lib.solver.policy_iteration, lib.cli.sweep_eta

        def recording_pi(*args, **kwargs):
            sol = real_pi(*args, **kwargs)
            recorded.append(sol)
            return sol

        def timed_sweep(*args, **kwargs):
            t0 = time.perf_counter()
            curve = real_sweep(*args, **kwargs)
            sweep_s.append(time.perf_counter() - t0)
            return curve

        with patched(lib.solver, "policy_iteration", recording_pi), patched(lib.cli, "sweep_eta", timed_sweep):
            t0 = time.perf_counter()
            rc = self.run(inp)
            main_s = time.perf_counter() - t0
        attempted, failed = self.check(inp, rc, ref)

        layers = Layers()
        t0 = time.perf_counter()
        traced = traced_sweep(lib, inp.model, [sol.eta for sol in recorded], layers)
        traced_s = time.perf_counter() - t0
        attempted += len(recorded)
        failed += sum(not same_solution(t, sol) for t, sol in zip(traced, recorded))
        layers["cli.io_s"] = main_s - sweep_s[0]
        layers["trace.overhead_frac"] = traced_s / sweep_s[0] - 1.0
        return layers, attempted, failed


# ---------------------------------------------------------------------------
# simulation workloads
# ---------------------------------------------------------------------------


class TimedPolicy:
    """Buffer-policy proxy that times each call; forwards ``max_buffer``."""

    def __init__(self, policy, timer: dict):
        self._policy = policy
        self._timer = timer
        self.max_buffer = getattr(policy, "max_buffer", None)

    def __call__(self, entries):
        t0 = time.perf_counter()
        s = self._policy(entries)
        self._timer["s"] += time.perf_counter() - t0
        self._timer["calls"] += 1
        return s


class TimedBitPolicy:
    """Bit-policy proxy timing ``action`` and ``parse_newest_first``."""

    def __init__(self, policy, timer: dict):
        self._policy = policy
        for name in ("action", "parse_newest_first"):
            if hasattr(policy, name):
                setattr(self, name, self._timed(getattr(policy, name), timer))

    def __getattr__(self, name):
        return getattr(self._policy, name)

    @staticmethod
    def _timed(fn, timer):
        def call(*args):
            t0 = time.perf_counter()
            out = fn(*args)
            timer["s"] += time.perf_counter() - t0
            timer["calls"] += 1
            return out

        return call


class Sim2e5(Workload):
    """Four ``agedist simulate`` runs through cli.main, 2*10^5 slots each.

    Operation ``i`` of a run simulates on stream ``seed * STREAMS + i``, so the
    operations are independent replications.  Each operation must reproduce
    direct mode bit for bit in erasure mode; ``finish`` pools the run's
    replications and checks each kind against the solver or a closed form.
    """

    name = "sim-2e5"
    why = "agedist simulate, 2*10^5 slots: fig1 eta=1 policy direct and erasure, S3 (K=6), Tunstall bits (N=3, tau=3)"
    perturb_path = ("policy", "lam")
    STREAMS = 10_000  # stream seeds per run seed: far more than a run's operations
    # kind -> (cli arguments, layer that times the policy)
    KINDS = {
        "direct": (["--mode", "direct"], "sim.policy_s"),
        "erasure": (["--mode", "erasure"], "sim.policy_s"),
        "s3": (["--strategy", "S3", "--k", str(S3_K)], "strategies.policy_s"),
        "bits": (["--mode", "bits", "--n-bits", str(BITS_N), "--tau", str(BITS_TAU), "--tunstall"], "bi.bits_policy_s"),
    }

    def setup(self, lib, work, seed, ref):
        path = write_model(work, FIG1)
        model, parse_s = parse_model(lib, path)
        sol = lib.solver.policy_iteration(model, SIM_ETA)
        policy = os.path.join(work, "policy.json")
        sol.to_json(policy)
        bi = lib.bufferignorant
        closed = {
            "s3": lib.strategies.s3_point(model, S3_K),
            "bits": bi.threshold_point(bi.BinarySource.from_model(model, BITS_N), BITS_TAU),
        }
        ok = [solution_ok(sol, ref["policy"])]
        ok += [close(pt.delta_e, ref[k]["delta_e"]) and close(pt.d, ref[k]["d"]) for k, pt in closed.items()]
        base = ["simulate", "--model", path, "--horizon", str(HORIZON)]
        argv = {k: base + (["--policy", policy] if k in ("direct", "erasure") else []) + args for k, (args, _) in self.KINDS.items()}
        return SimpleNamespace(
            lib=lib, sol=sol, parse_s=parse_s, argv=argv, seed=seed, streams=0,
            results={k: [] for k in self.KINDS}, counts=(len(ok), len(ok) - sum(ok)),
        )

    def _next_stream(self, inp) -> int:
        inp.streams += 1
        return inp.seed * self.STREAMS + inp.streams - 1

    def _simulate(self, inp, kind, stream):
        rc, text = call_cli(inp.lib, inp.argv[kind] + ["--seed", str(stream)])
        return json.loads(text) if rc == 0 else None

    def run(self, inp):
        stream = self._next_stream(inp)
        return {kind: self._simulate(inp, kind, stream) for kind in self.KINDS}

    def check(self, inp, out, ref):
        # erasure commits to the same stationary policy under the same streams
        failed = sum(out[k] is None or (k == "erasure" and out[k] != out["direct"]) for k in self.KINDS)
        for kind, res in out.items():
            if res is not None:
                inp.results[kind].append(res)
        return len(self.KINDS), failed

    def finish(self, inp, ref):
        """Each kind's pooled replications vs solver or closed form, at N_SE standard errors.

        The pooled mean of n replications has standard error sqrt(sum se_i^2) / n.
        """
        failed = 0
        for kind, results in inp.results.items():
            if not results:
                failed += 1
                continue
            n = len(results)
            mean = {f: sum(r[f] for r in results) / n for f in ("delta_e", "d")}
            se_delta, se_d = (sum(r[f] ** 2 for r in results) ** 0.5 / n for f in ("se_delta", "se_d"))
            if kind in ("direct", "erasure"):
                # se_d + eta*se_delta bounds the standard error of d + eta*delta_e
                gap = abs(mean["d"] + SIM_ETA * mean["delta_e"] - inp.sol.lam)
                failed += not gap < N_SE * (se_d + SIM_ETA * se_delta)
                continue
            age_ok = abs(mean["delta_e"] - ref[kind]["delta_e"]) < N_SE * se_delta
            if kind == "s3":
                failed += not (age_ok and abs(mean["d"] - ref[kind]["d"]) < N_SE * se_d)
            else:
                # Tunstall coding keeps the plain threshold's backlog, so its age is
                # the closed form's; its distortion must not exceed the plain policy's.
                failed += not (age_ok and mean["d"] <= ref[kind]["d"] + 2 * se_d)
        return len(self.KINDS), failed

    def trace(self, inp, ref):
        stream = self._next_stream(inp)
        layers = Layers()
        reference = {kind: layers.timed(f"sim.{kind}_s", self._simulate, inp, kind, stream) for kind in self.KINDS}
        ref_s = sum(layers[f"sim.{kind}_s"] for kind in self.KINDS)
        attempted, failed = self.check(inp, reference, ref)

        traced_s = 0.0
        for kind, (_, policy_layer) in self.KINDS.items():
            out, main_s, sim_s, timer = self._traced_simulate(inp, kind, stream)
            traced_s += main_s
            attempted += 1
            failed += out != reference[kind]
            layers.add("sim.policy_calls", timer["calls"])
            layers.add(policy_layer, timer["s"])
            layers.add("sim.loop_self_s", sim_s - timer["s"])
            layers.add("cli.io_s", main_s - sim_s)
        layers["trace.overhead_frac"] = traced_s / ref_s - 1.0
        return layers, attempted, failed

    def _traced_simulate(self, inp, kind, stream):
        """One simulation with cli.simulate_* handing the simulator a timing proxy.

        Returns (output, cli.main seconds, simulate seconds, policy timer).
        """
        lib = inp.lib
        timer = {"s": 0.0, "calls": 0}
        sim_s = []

        def wrap(real, proxy):
            def simulate(config, *args):
                *rest, policy = args
                t0 = time.perf_counter()
                res = real(config, *rest, proxy(policy, timer))
                sim_s.append(time.perf_counter() - t0)
                return res

            return simulate

        with contextlib.ExitStack() as stack:
            for name in ("simulate_policy", "simulate_erasure"):
                stack.enter_context(patched(lib.cli, name, wrap(getattr(lib.cli, name), TimedPolicy)))
            bits = wrap(lib.cli.simulate_bit_policy, TimedBitPolicy)
            stack.enter_context(patched(lib.cli, "simulate_bit_policy", bits))
            t0 = time.perf_counter()
            out = self._simulate(inp, kind, stream)
            main_s = time.perf_counter() - t0
        return out, main_s, sim_s[0], timer


WORKLOADS = {w.name: w for w in (Fig1Sweep(), Sim2e5())}
