"""Time the benchmark workloads' hot paths in one or two operlax source trees.

    python scripts/hotpaths.py [SRC] [--rounds N]
    python scripts/hotpaths.py SRC_A SRC_B [--rounds N]

SRC is a checkout's `src` directory (default: this checkout's).  Each hot path
runs once untimed, then N times (default 50).  A sample of a path that takes
well under a millisecond is the mean of 10 or 100 calls.  A path that reads a
private name a tree lacks prints null in place of its times.

With one tree the paths run in this process, and the script prints one JSON
line: {"src": SRC, "rounds": N, PATH: {"p10_us": ..., "median_us": ...}, ...}.

With two trees each runs in a worker process of its own, and the script takes
every path's samples from the two in turn, round k from A then B for even k and
from B then A for odd k (A/B/B/A), so that both sides see the same phases of the
host's speed, which drifts over seconds.  It prints one JSON line: {"src":
[SRC_A, SRC_B], "rounds": N, PATH: {"a_median_us": ..., "b_median_us": ...,
"a_over_b": ..., "a_wins": ..., "b_wins": ...}, ...}, where a_over_b > 1 means
B is faster and a side wins a round with the smaller sample (a tie counts for
neither).

The hot paths:
- `_trial_draws` of the identity suite (1000 trials), the theorem suite (20)
  and the PDE suite's states (100), seed 3;
- the operad suite's triple-law kernel, `_by_signature(_triple_laws, 3, ...)`
  over the draws of seed 3's first 200 trials, `_operad_draws(3, range(200))`;
- `structure_rhs_matrix` at dims 2 and 3;
- the stepping loops, through public names: `evolve` at 20k records, the
  theorem workload's `theorem_suite(20, k, 1e-6, t_end=2.0)` and its order
  check, `rk4_order_check` at dt 2e-3, t_end 10 and omega 1, and
  `theorem_suite(600, k, 1e-6, t_end=0.5)`, whose 600 trials take three
  blocks of `calculus.TRIAL_BLOCK`;
- one pass of the benchmark's laws workload: `verify operad` (200 trials),
  `verify identities` (1000) and `pde-check` (100) through the CLI, each
  report written to a file, plus 200 bracket/index pairs; round k takes seed k;
- one pass of the benchmark's theorem workload: `verify theorem` (20 trials,
  dt 1e-3, t_end 2, tol 1e-6) through the CLI, its report written to a file,
  plus the order check above; round k takes seed k.  `theorem_pass` reuses the
  RK4 power tables that earlier calls built, as every pass after a process's
  first does; `theorem_pass_cold` clears that cache before each sample, so its
  excess over `theorem_pass` is the cost of building the tables.
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


def _laws_pass(out: Path):
    from operlax import calculus, cli, evolution

    def run(seed: int):
        for argv in (["verify", "operad", "--trials", "200", "--tol", "1e-10"],
                     ["verify", "identities", "--trials", "1000", "--tol", "1e-12"],
                     ["pde-check", "--trials", "100", "--tol", "1e-8"]):
            assert cli.main(argv + ["--seed", str(seed), "--out", str(out)]) == 0
        worst = 0.0  # the workload's bracket form against index form
        for d in (2, 3):
            for k in range(100):
                rng = calculus.trial_rng(seed, 1000 * d + k)
                mu, m = (calculus.random_operation(rng, d, a) for a in (2, 1))
                diff = (evolution.operadic_lax_rhs(mu, m).coeffs
                        - evolution.structure_constant_rhs(mu, m).coeffs)
                worst = max(worst, float(abs(diff).max()))
        assert worst <= 1e-13
    return run


def _theorem_pass(out: Path, order, cold: bool):
    from operlax import cli, evolution

    def run(seed: int):
        if cold:
            evolution._power_table.cache_clear()
        assert cli.main(["verify", "theorem", "--trials", "20", "--seed", str(seed), "--dt", "0.001",
                         "--t-end", "2.0", "--tol", "1e-6", "--out", str(out)]) == 0
        assert 12.0 <= evolution.rk4_order_check(order) <= 20.0
    return run


def hot_paths(out: Path) -> dict:
    """name -> (calls per sample, function of the round index)"""
    from operlax import IntegratorConfig, MuParams, calculus, evolution, oscillator

    draws = functools.cache(lambda: calculus._operad_draws(3, range(200)))
    ms = {d: calculus.random_operation(calculus.trial_rng(0, d), d, 1) for d in (2, 3)}
    c = MuParams((0.1, -0.2, 0.3, -0.4, 0.5, -0.6, 0.7, -0.8))
    trajectory = IntegratorConfig(dt=1e-3, t_end=20.0, omega=1.0, q0=0.3, p0=-1.2, params=c)
    order = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0)
    return {
        "trial_draws_identity_1000": (1, lambda k: oscillator._trial_draws(
            3, range(1000), oscillator._IDENTITY_RANGES, False)),
        "trial_draws_theorem_20": (100, lambda k: oscillator._trial_draws(
            3, range(20), evolution._THEOREM_RANGES, True)),
        "trial_draws_pde_100": (10, lambda k: oscillator._trial_draws(
            3, range(100), evolution._PDE_RANGES, True)),
        "triple_laws_seed3_200": (1, lambda k: calculus._by_signature(
            calculus._triple_laws, 3, draws())),
        "structure_rhs_matrix_dim2": (100, lambda k: evolution.structure_rhs_matrix(ms[2])),
        "structure_rhs_matrix_dim3": (100, lambda k: evolution.structure_rhs_matrix(ms[3])),
        "laws_pass": (1, _laws_pass(out)),
        "evolve_20k": (1, lambda k: evolution.evolve(trajectory)),
        "theorem_suite_20": (1, lambda k: evolution.theorem_suite(20, k, 1e-6, t_end=2.0)),
        "theorem_suite_600": (1, lambda k: evolution.theorem_suite(600, k, 1e-6, t_end=0.5)),
        "rk4_order_check": (10, lambda k: evolution.rk4_order_check(order)),
        "theorem_pass": (1, _theorem_pass(out, order, cold=False)),
        "theorem_pass_cold": (1, _theorem_pass(out, order, cold=True)),
    }


class _Tree:
    """The hot paths of one source tree, imported into this process."""

    def __init__(self, src: str, out: Path):
        sys.path.insert(0, str(Path(src).resolve()))
        self.paths = hot_paths(out)

    def warm(self, name: str) -> bool:
        """Run the path once untimed; False when it reads a private name the tree lacks."""
        try:
            self.paths[name][1](0)
        except AttributeError as exc:  # a private name of an older or newer tree
            if not (isinstance(exc.obj, types.ModuleType) and exc.name.startswith("_")):
                raise
            return False
        return True

    def sample(self, name: str, k: int) -> float:
        """One sample of round k in microseconds: the mean of the path's calls."""
        calls, fn = self.paths[name]
        t0 = time.perf_counter_ns()
        for _ in range(calls):
            fn(k)
        return (time.perf_counter_ns() - t0) / calls / 1e3


def _serve(src: str) -> int:
    """Answer one JSON request per stdin line, [method, *args] of a _Tree, on stdout."""
    replies, sys.stdout = sys.stdout, sys.stderr  # what a path prints does not mix with them
    with tempfile.TemporaryDirectory() as tmp:
        tree = _Tree(src, Path(tmp) / "report.json")
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


def _one_tree(src: str, rounds: int) -> dict:
    result = {"src": src, "rounds": rounds}
    with tempfile.TemporaryDirectory() as tmp:
        tree = _Tree(src, Path(tmp) / "report.json")
        for name in tree.paths:
            if not tree.warm(name):
                result[name] = None
                continue
            samples = sorted(tree.sample(name, k) for k in range(rounds))
            result[name] = {"p10_us": round(samples[len(samples) // 10], 2),
                            "median_us": round(statistics.median(samples), 2)}
    return result


def _two_trees(src_a: str, src_b: str, rounds: int) -> dict:
    result = {"src": [src_a, src_b], "rounds": rounds}
    workers = [_Worker(src_a), _Worker(src_b)]
    try:
        for name in workers[0].names:
            if not all(name in w.names and w.call("warm", name) for w in workers):
                result[name] = None
                continue
            a, b = [], []
            for k in range(rounds):
                for w in workers if k % 2 == 0 else workers[::-1]:  # A/B, then B/A
                    (a if w is workers[0] else b).append(w.call("sample", name, k))
            ma, mb = statistics.median(a), statistics.median(b)
            result[name] = {"a_median_us": round(ma, 2), "b_median_us": round(mb, 2),
                            "a_over_b": round(ma / mb, 4),
                            "a_wins": sum(x < y for x, y in zip(a, b)),
                            "b_wins": sum(y < x for x, y in zip(a, b))}
    finally:
        for w in workers:
            w.close()
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("src", nargs="*", default=[str(Path(__file__).resolve().parent.parent / "src")])
    ap.add_argument("--rounds", type=int, default=50)
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if len(args.src) > 2 or (args.worker and len(args.src) != 1):
        ap.error("give one or two source trees")
    if args.worker:
        return _serve(args.src[0])
    print(json.dumps(_one_tree(args.src[0], args.rounds) if len(args.src) == 1
                     else _two_trees(*args.src, args.rounds)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
