"""Time the benchmark workloads' hot paths in one or two operlax source trees.

    python scripts/hotpaths.py [SRC] [--rounds N]
    python scripts/hotpaths.py SRC_A SRC_B [--rounds N]

SRC is a checkout's `src` directory (default: this checkout's).  Each tree runs
in a worker process of its own.  Each path runs once untimed in every tree,
then N times (default 50, at least 1): round k takes one sample from each tree,
A then B for even k and B then A for odd k (A/B/B/A), so that both trees see
the same phases of the host's speed, which drifts over seconds.  A sample of a
path that takes well under a millisecond is the mean of 10 or 100 calls.

It prints one JSON line, {"src": [SRC, ...], "rounds": N, PATH: {"median_us":
[...], "p10_us": [...]}, ...}, one list entry per tree.  With two trees a path
also has "a_over_b" (> 1 means B is faster), "a_wins" and "b_wins" (a tree
wins a round with the smaller sample; a tie counts for neither).  A path that
reads a private name a tree lacks prints null.

The pass paths `laws_pass`, `trajectory_pass` (`simulate` to a CSV file) and
`theorem_pass` are the benchmark's passes: `Runner.run_pass(k)` of this
checkout's `perfbench/worker.py` on the workload at run seed 0.  A sample is
the pass's wall time as the benchmark takes it; each item is gated as the
benchmark gates it, and a failed gate stops the run with the runner's message.
`theorem_pass` reuses the RK4 power tables that earlier passes built, as every
pass after a process's first does; `theorem_pass_cold` clears that cache
first, so its excess over `theorem_pass` is the cost of building the tables.

The other paths run kernels, some of them private, at the workloads' sizes
(`worker`'s `DT`, `T_END`, `THEOREM_TRIALS`, `THEOREM_T_END`, `ORDER_CONFIG`):
- `_trial_draws` of the identity suite (1000 trials), the theorem suite (20)
  and the PDE suite's states (100), seed 3;
- the operad suite's triple-law kernel, `_by_signature(_triple_laws, 3, ...)`
  over the draws of seed 3's first 200 trials, `_operad_draws(3, range(200))`;
- `structure_rhs_matrix` at dims 2 and 3;
- `evolve` at 20k records, the theorem workload's `theorem_suite` and order
  check, and `theorem_suite(600, k, 1e-6, t_end=0.5)`, whose 600 trials take
  three blocks of `calculus.TRIAL_BLOCK`;
- `verify_theorem_cli`: `operlax.cli.main` on the theorem workload's `verify
  theorem` arguments at seed k, its report to a temp file.  It reads public
  names only, so an A/B run shows what the CLI adds to the suite, its report
  writer included.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
import types
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

_ROOT = Path(__file__).resolve().parent.parent


def _timed(calls: int, fn):
    """A path that calls fn(k) `calls` times and returns the mean time in ns."""
    def run(k: int):
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(k)
        return (time.perf_counter_ns() - t0) / calls
    return run


def _benchmark_pass(workload: str, tmp: Path, cold: bool = False):
    """A path that runs pass k of the benchmark's workload, gated, and returns its wall in ns."""
    import spans
    import worker
    from operlax import evolution

    tracer = spans.Tracer()
    runner = worker.Runner(worker.WORKLOADS[workload](0, tmp, tracer), tracer)

    def run(k: int):
        if cold:
            evolution._power_table.cache_clear()
        wall = runner.run_pass(k)
        if runner.failures:
            raise RuntimeError("; ".join(runner.failures))
        return wall
    return run


def hot_paths(tmp: Path) -> dict:
    """name -> function of the round index that returns one sample in ns"""
    import worker
    from operlax import IntegratorConfig, MuParams, calculus, cli, evolution, oscillator

    draws = functools.cache(lambda: calculus._operad_draws(3, range(200)))
    ms = {d: calculus.random_operation(calculus.trial_rng(0, d), d, 1) for d in (2, 3)}
    c = MuParams((0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8))
    trajectory = IntegratorConfig(dt=worker.DT, t_end=worker.T_END, omega=1.0, q0=0.3, p0=-1.2,
                                  params=c)
    trials, t_end = worker.THEOREM_TRIALS, worker.THEOREM_T_END
    theorem_argv = ["verify", "theorem", "--trials", str(trials), "--dt", repr(worker.DT),
                    "--t-end", repr(t_end), "--tol", "1e-6",
                    "--out", str(tmp / "verify_theorem_cli.json")]

    def verify_theorem(k: int):
        if cli.main([*theorem_argv, "--seed", str(k)]) != 0:
            raise RuntimeError(f"verify theorem exited nonzero at seed {k}")

    return {
        "trial_draws_identity_1000": _timed(1, lambda k: oscillator._trial_draws(
            3, range(1000), oscillator._IDENTITY_RANGES, False)),
        "trial_draws_theorem_20": _timed(100, lambda k: oscillator._trial_draws(
            3, range(trials), evolution._THEOREM_RANGES, True)),
        "trial_draws_pde_100": _timed(10, lambda k: oscillator._trial_draws(
            3, range(100), evolution._PDE_RANGES, True)),
        "triple_laws_seed3_200": _timed(1, lambda k: calculus._by_signature(
            calculus._triple_laws, 3, draws())),
        "structure_rhs_matrix_dim2": _timed(100, lambda k: evolution.structure_rhs_matrix(ms[2])),
        "structure_rhs_matrix_dim3": _timed(100, lambda k: evolution.structure_rhs_matrix(ms[3])),
        "laws_pass": _benchmark_pass("laws", tmp),
        "evolve_20k": _timed(1, lambda k: evolution.evolve(trajectory)),
        "trajectory_pass": _benchmark_pass("trajectory", tmp),
        "theorem_suite_20": _timed(1, lambda k: evolution.theorem_suite(trials, k, 1e-6,
                                                                         t_end=t_end)),
        "theorem_suite_600": _timed(1, lambda k: evolution.theorem_suite(600, k, 1e-6, t_end=0.5)),
        "rk4_order_check": _timed(10, lambda k: evolution.rk4_order_check(worker.ORDER_CONFIG)),
        "verify_theorem_cli": _timed(1, verify_theorem),
        "theorem_pass": _benchmark_pass("theorem", tmp),
        "theorem_pass_cold": _benchmark_pass("theorem", tmp, cold=True),
    }


class _Tree:
    """The hot paths of one source tree, imported into this process."""

    def __init__(self, src: str, tmp: Path):
        sys.path[:0] = [str(Path(src).resolve()), str(_ROOT / "perfbench")]
        self.paths = hot_paths(tmp)

    def warm(self, name: str) -> bool:
        """Run the path once untimed; False when it reads a private name the tree lacks."""
        try:
            self.paths[name](0)
        except AttributeError as exc:  # a private name of an older or newer tree
            if not (isinstance(exc.obj, types.ModuleType) and exc.name.startswith("_")):
                raise
            return False
        return True

    def sample(self, name: str, k: int) -> float:
        """One sample of round k in microseconds."""
        return self.paths[name](k) / 1e3


def _serve(src: str) -> int:
    """Answer one JSON request per stdin line, [method, *args] of a _Tree, on stdout."""
    replies, sys.stdout = sys.stdout, sys.stderr  # what a path prints does not mix with them
    with tempfile.TemporaryDirectory() as tmp:
        tree = _Tree(src, Path(tmp))
        print(json.dumps(list(tree.paths)), file=replies, flush=True)
        for line in sys.stdin:
            method, *args = json.loads(line)
            print(json.dumps(getattr(tree, method)(*args)), file=replies, flush=True)
    return 0


class _Worker:
    """A _Tree in a process of its own, reached through _serve."""

    def __init__(self, src: str):
        argv = [sys.executable, str(Path(__file__).resolve()), "--worker", src]
        self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.names = self._reply()

    def _reply(self):
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"hot-path worker exited with {self.proc.wait()}")
        return json.loads(line)

    def call(self, method: str, *args):
        self.proc.stdin.write(json.dumps([method, *args]) + "\n")
        self.proc.stdin.flush()
        return self._reply()

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def _trees(srcs: list, rounds: int) -> dict:
    result = {"src": srcs, "rounds": rounds}
    workers = [_Worker(src) for src in srcs]
    try:
        turns = list(enumerate(workers))
        for name in workers[0].names:
            if not all(name in w.names and w.call("warm", name) for w in workers):
                result[name] = None
                continue
            samples = [[] for _ in workers]
            for k in range(rounds):
                for i, w in turns if k % 2 == 0 else turns[::-1]:  # A/B, then B/A
                    samples[i].append(w.call("sample", name, k))
            medians = [statistics.median(s) for s in samples]
            result[name] = {"median_us": [round(m, 2) for m in medians],
                            "p10_us": [round(sorted(s)[len(s) // 10], 2) for s in samples]}
            if len(workers) == 2:
                a, b = samples
                result[name].update(a_over_b=round(medians[0] / medians[1], 4),
                                    a_wins=sum(x < y for x, y in zip(a, b)),
                                    b_wins=sum(y < x for x, y in zip(a, b)))
    finally:
        for w in workers:
            w.close()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", default=[str(_ROOT / "src")])
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if len(args.src) > 2 or (args.worker and len(args.src) != 1):
        ap.error("give one or two source trees")
    if args.rounds < 1:
        ap.error("--rounds must be at least 1")
    if args.worker:
        return _serve(args.src[0])
    print(json.dumps(_trees(args.src, args.rounds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
