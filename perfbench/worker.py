"""One workload process: runs timed passes through ``operlax.cli.main`` in-process.

Started by ``run.py`` with ``PYTHONPATH=src`` and BLAS/OpenMP pinned to one
thread.  Prints one JSON object on its last stdout line; everything the CLI
itself prints goes to a counting sink.

A pass is the workload's fixed unit of work.  Only the calls into operlax
are timed; every item is checked against the correctness gate afterwards,
outside the timed region.  An item fails when it exits non-zero, raises, or
fails the gate.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import operlax
import operlax.cli
from operlax import calculus, evolution
from operlax.evolution import CSV_HEADER, IntegratorConfig
from operlax.oscillator import MuParams

import spans

DT = 1e-3
T_END = 20.0
THEOREM_TRIALS = 20
# A tenth of the acceptance horizon (t_end 20), with its trial count, dt and
# tolerance.  Pass times are paired with reference times taken at both ends of
# the pass, which follow the host's speed only across a second or two: with
# 13 s passes (t_end 20) runs spread 0.11-0.16 of their median, with 4 s passes
# (t_end 5) 0.18, with these 2 s passes 0.075.
THEOREM_T_END = 2.0
ORDER_CONFIG = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                                params=MuParams.zeros())
# Traced runs use a fixed pass count so that per-pass call counts repeat exactly.
TRACE_PASSES = {"trajectory": 4, "theorem": 4, "laws": 4}
# Untimed warm-up before the timed passes, so that first-call costs and the
# first touch of the working set's memory stay out of the pass times.
WARMUP_S = 2.0
# The host's speed drifts by up to 1.8x in phases of seconds to minutes, which
# moves every wall time with it.  So each timed pass is paired with the time of
# a fixed reference computation measured right before and after it; their
# ratio cancels the host's speed.  The reference share of run time is REF_SHARE.
REF_SHARE = 0.08


class GateError(Exception):
    pass


def require(ok: bool, what: str):
    if not ok:
        raise GateError(what)


def pass_seed(seed: int, k: int) -> int:
    """Root seed of pass k, drawn from the run seed; the CLI only sees the result."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1, np.uint32)[0])


class CountingSink(io.TextIOBase):
    def __init__(self):
        self.chars = 0

    def writable(self):
        return True

    def write(self, text):
        self.chars += len(text)
        return len(text)


class Bench:
    """Shared plumbing: CLI calls with byte and exit-code counting."""

    def __init__(self, tmp: Path, tracer: spans.Tracer):
        self.tmp = tmp
        self.tracer = tracer
        self.sink = CountingSink()
        self.stderr = ""

    def cli(self, argv: list, out: Path) -> int:
        before = self.sink.chars
        err = io.StringIO()
        with contextlib.redirect_stdout(self.sink), contextlib.redirect_stderr(err):
            try:
                code = operlax.cli.main(argv + ["--out", str(out)])
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        self.stderr = err.getvalue()
        if self.tracer.active:
            written = self.sink.chars - before + (out.stat().st_size if out.exists() else 0)
            self.tracer.counts["cli.bytes_written"] += written
            self.tracer.counts["cli.exit_nonzero"] += code != 0
        return code

    def exit_ok(self, code: int):
        require(code == 0, f"exit code {code}: {self.stderr.strip()[-300:]}")

    def warmup_items(self):
        """Items of the untimed warm-up pass; the first pass unless a workload
        has a cheaper one that runs the same code."""
        return self.items(0)

    def report(self, code: int, path: Path, suite: str, n_checks: int | None = None):
        self.exit_ok(code)
        obj = json.loads(path.read_text())
        require(obj.get("suite") == suite, f"report is for suite {obj.get('suite')!r}, not {suite!r}")
        require(obj.get("overall_pass") is True, f"{suite}: overall_pass is not true")
        if n_checks is not None:
            require(len(obj["checks"]) == n_checks,
                    f"{obj['suite']}: {len(obj['checks'])} checks, expected {n_checks}")


class Trajectory(Bench):
    """``simulate`` on one configuration drawn from the seed; CSV to a temp dir."""

    unit = "steps"

    def __init__(self, seed, tmp, tracer):
        super().__init__(tmp, tracer)
        rng = np.random.default_rng([seed, 1])
        omega = float(rng.choice([0.5, 1.0, 2.0]))
        h = float(rng.uniform(0.1, 10.0))
        theta = float(rng.uniform(-math.pi, math.pi))
        c = rng.uniform(-1.0, 1.0, size=8)
        r = math.sqrt(2.0 * h)
        self.inputs = {"omega": omega, "H": h, "theta": theta, "c": [float(x) for x in c],
                       "dt": DT, "t_end": T_END, "record_every": 1}
        self.argv = [
            "simulate", "--omega", repr(omega), "--q0", repr(r * math.sin(theta) / omega),
            "--p0", repr(r * math.cos(theta)), "--c=" + ",".join(repr(float(x)) for x in c),
            "--dt", repr(DT), "--t-end", repr(T_END), "--record-every", "1",
        ]
        self.steps = round(T_END / DT)
        self.work = self.steps
        self.out = tmp / "trajectory.csv"
        self.digest = None

    def items(self, k):
        return [("simulate", lambda: self.cli(self.argv, self.out))]

    def check(self, name, code):
        self.exit_ok(code)
        data = self.out.read_bytes()
        digest = hashlib.sha256(data).hexdigest()
        if self.digest is not None:
            require(digest == self.digest, "CSV bytes differ from the first pass of this run")
            return
        lines = data.decode().split("\n")
        require(lines[-1] == "", "CSV does not end with a newline")
        lines.pop()
        require(lines[0] == CSV_HEADER, "CSV header differs from CSV_HEADER")
        require(len(lines) == self.steps + 2, f"{len(lines) - 1} rows, expected {self.steps + 1}")
        cols = CSV_HEADER.split(",")
        i_err, i_drift = cols.index("err_mu_max"), cols.index("energy_drift")
        for n, line in enumerate(lines[1:]):
            row = line.split(",")
            require(len(row) == len(cols), f"row {n}: {len(row)} fields")
            require(float(row[i_err]) <= 1e-6, f"row {n}: err_mu_max {row[i_err]} > 1e-6")
            require(float(row[i_drift]) <= 1e-9, f"row {n}: energy_drift {row[i_drift]} > 1e-9")
        self.digest = digest


class Theorem(Bench):
    """``verify theorem`` at acceptance size plus the criterion-6 order check."""

    unit = "trials"

    def __init__(self, seed, tmp, tracer):
        super().__init__(tmp, tracer)
        self.seed = seed
        self.inputs = {"trials": THEOREM_TRIALS, "dt": DT, "t_end": THEOREM_T_END, "tol": 1e-6,
                       "order_check": {"dt": ORDER_CONFIG.dt, "t_end": ORDER_CONFIG.t_end,
                                       "omega": ORDER_CONFIG.omega}}
        self.work = THEOREM_TRIALS
        self.out = tmp / "theorem.json"

    def items(self, k, trials=THEOREM_TRIALS, t_end=THEOREM_T_END):
        argv = ["verify", "theorem", "--trials", str(trials),
                "--seed", str(pass_seed(self.seed, k)), "--dt", repr(DT),
                "--t-end", repr(t_end), "--tol", "1e-6"]
        self.trials = trials
        return [
            ("verify theorem", lambda: self.cli(argv, self.out)),
            ("rk4_order_check", lambda: evolution.rk4_order_check(ORDER_CONFIG)),
        ]

    def warmup_items(self):
        # a full pass takes seconds; a short one warms the same code
        return self.items(0, trials=2, t_end=2.0)

    def check(self, name, value):
        if name == "rk4_order_check":
            require(12.0 <= value <= 20.0, f"order ratio {value!r} outside [12, 20]")
        else:
            self.report(value, self.out, "verify-theorem", 4 * self.trials)


class Laws(Bench):
    """Operad, identity and PDE suites plus the criterion-2 bracket pairs."""

    unit = "passes"

    def __init__(self, seed, tmp, tracer):
        super().__init__(tmp, tracer)
        self.seed = seed
        self.inputs = {"operad_trials": 200, "identities_trials": 1000, "pde_trials": 100,
                       "bracket_pairs": 200}
        self.work = 1
        # report "suite" field -> CLI arguments
        self.suites = {
            "verify-operad": ["verify", "operad", "--trials", "200", "--tol", "1e-10"],
            "verify-identities": ["verify", "identities", "--trials", "1000", "--tol", "1e-12"],
            "pde-check": ["pde-check", "--trials", "100", "--tol", "1e-8"],
        }

    def items(self, k):
        s = pass_seed(self.seed, k)
        calls = [
            (suite, lambda argv=argv, out=self.tmp / f"{suite}.json":
                self.cli(argv + ["--seed", str(s)], out))
            for suite, argv in self.suites.items()
        ]
        return calls + [("bracket pairs", lambda: bracket_pairs(s))]

    def check(self, name, value):
        if name == "bracket pairs":
            require(value <= 1e-13, f"bracket/index formula differ by {value!r} > 1e-13")
        else:
            self.report(value, self.tmp / f"{name}.json", name)


def bracket_pairs(seed: int) -> float:
    """Criterion 2: bracket form against index form, 100 pairs per dim in {2, 3}."""
    worst = 0.0
    for d in (2, 3):
        for k in range(100):
            rng = calculus.trial_rng(seed, 1000 * d + k)
            mu = calculus.random_operation(rng, d, 2)
            m = calculus.random_operation(rng, d, 1)
            diff = (evolution.operadic_lax_rhs(mu, m).coeffs
                    - evolution.structure_constant_rhs(mu, m).coeffs)
            worst = max(worst, float(np.max(np.abs(diff))))
    return worst


WORKLOADS = {"trajectory": Trajectory, "theorem": Theorem, "laws": Laws}


class Runner:
    def __init__(self, wl: Bench, tracer: spans.Tracer):
        self.wl = wl
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, k: int, traced: bool = False, items=None) -> int:
        """Run pass k, or the given items, and gate them; returns the wall time in ns."""
        items = self.wl.items(k) if items is None else items
        results = []
        root = self.tracer.pass_span(k) if traced else contextlib.nullcontext()
        t0 = time.perf_counter_ns()
        with root:
            for name, fn in items:
                try:
                    results.append((name, fn(), None))
                except Exception as exc:  # an item that raises is a failed item
                    results.append((name, None, exc))
        wall = time.perf_counter_ns() - t0
        for name, value, exc in results:
            self.attempted += 1
            try:
                if exc is not None:
                    raise exc
                self.wl.check(name, value)
            except Exception as exc2:
                self.failed += 1
                msg = f"pass {k} {name}: {type(exc2).__name__}: {exc2}"
                self.failures.append(msg)
                if self.failed <= 5:
                    print(f"perfbench: FAILED {msg}", file=sys.stderr)
                    if not isinstance(exc2, GateError):
                        traceback.print_exception(exc2, file=sys.stderr)
        return wall


def reference_block() -> int:
    """Fixed computation that the host's speed alone sets the time of: a
    short RK4 loop on a 2-vector with small numpy arrays and float formatting,
    the same kind of work as operlax's, but none of its code.  Changing it
    makes reference-paired figures of two benchmark versions incomparable."""
    x = np.array([0.0, 1.0])
    h = 1e-3
    out = []
    for _ in range(4500):
        k1 = np.array([x[1], -x[0]])
        y = x + 0.5 * h * k1
        k2 = np.array([y[1], -y[0]])
        y = x + 0.5 * h * k2
        k3 = np.array([y[1], -y[0]])
        y = x + h * k3
        k4 = np.array([y[1], -y[0]])
        x = x + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(f"{float(x[0])!r},{float(x[1])!r}")
    return len(",".join(out))


def reference_time(budget_s: float) -> float:
    """Median time of reference blocks run for about `budget_s`, at least one,
    with the collector off so that the workload's heap does not enter it."""
    times = []
    gc.disable()
    try:
        started = time.perf_counter()
        while not times or time.perf_counter() - started < budget_s:
            t0 = time.perf_counter_ns()
            reference_block()
            times.append(time.perf_counter_ns() - t0)
    finally:
        gc.enable()
    return statistics.median(times) / 1e9


def warm_up(runner: Runner):
    """Untimed, gated warm-up passes for at least WARMUP_S seconds."""
    started = time.perf_counter()
    while time.perf_counter() - started < WARMUP_S:
        runner.run_pass(0, items=runner.wl.warmup_items())


def timed_run(runner: Runner, seconds: float) -> tuple[list[float], list[float]]:
    """Passes until the next one would end past `seconds`; at least one.

    Returns the pass times and the reference times taken before the first
    pass and after each pass, all in seconds."""
    warm_up(runner)
    walls = []
    refs = [reference_time(REF_SHARE)]
    started = time.perf_counter()
    while True:
        walls.append(runner.run_pass(len(walls)) / 1e9)
        refs.append(reference_time(REF_SHARE * walls[-1]))
        elapsed = time.perf_counter() - started
        if elapsed * (len(walls) + 1) / len(walls) > seconds:
            return walls, refs


def traced_run(runner: Runner, tracer: spans.Tracer, workload: str, out_dir: Path, seed: int):
    n = TRACE_PASSES[workload]
    warm_up(runner)
    plain = [runner.run_pass(k) for k in range(n)]
    tracer.install()
    traced = [runner.run_pass(k, traced=True) for k in range(n)]
    summary = tracer.summary()
    tracer.write_csv(out_dir / f"spans-{workload}-seed{seed}.csv.gz")
    self_sum = [summary["run_self_ns"][k] for k in range(n)]
    return plain, traced, self_sum, summary


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    args = ap.parse_args()

    tracer = spans.Tracer()
    with tempfile.TemporaryDirectory(dir=args.out_dir) as tmp:
        wl = WORKLOADS[args.workload](args.seed, Path(tmp), tracer)
        runner = Runner(wl, tracer)
        result = {
            "provenance": {
                "python": sys.version.split()[0],
                "numpy": np.__version__,
                "operlax": operlax.__version__,
                "seed": args.seed,
                "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_THREADS")},
            },
            "inputs": wl.inputs,
            "work_unit": wl.unit,
            "work_per_pass": wl.work,
        }
        if args.trace:
            plain, traced, self_sum, summary = traced_run(
                runner, tracer, args.workload, args.out_dir, args.seed)
            n = len(traced)
            result.update(
                untraced_pass_s=[w / 1e9 for w in plain],
                traced_pass_s=[w / 1e9 for w in traced],
                self_sum_s=[s / 1e9 for s in self_sum],
                spans=len(tracer.start),
                # per-pass means
                counts={name: int(v) / n for name, v in tracer.counts.items()},
                layers={
                    name: {"calls": summary["calls"][name] / n,
                           "self_s": summary["self_ns"][name] / n / 1e9,
                           "total_s": summary["total_ns"][name] / n / 1e9}
                    for name in sorted(summary["calls"])
                },
            )
        else:
            result["pass_s"], result["ref_s"] = timed_run(runner, args.seconds)
    result.update(
        attempted=runner.attempted,
        failed=runner.failed,
        failures=runner.failures[:20],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
