"""operlax benchmark: end-to-end metrics per workload, or per-layer metrics from a traced run.

Usage, from the root of a source checkout (no install needed):

    python3 perfbench/run.py --workload {trajectory,theorem,laws} \
        --seed N --seconds S --trace {0,1}

With ``--trace 0`` it measures set-up time in fresh interpreters, then runs
the workload in one fresh single-threaded worker process for about S
seconds, after an untimed warm-up, and reports the end-to-end metrics of
BENCHMARK.json; pass times are paired with a fixed reference computation
(see ``end_to_end``).  With ``--trace 1`` the worker runs a fixed number of
passes untraced, then the same passes with every public operlax function
wrapped, and reports the per-layer metrics plus the tracing overhead.  The
last stdout line is one JSON object {correct, attempted, failed, metrics};
the lines before it are a readable report.  Full results and the span table
go to ``.perfbench_out/``.  The exit code is non-zero when any correctness
gate fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
# Set-up samples taken before and again after the worker: the host's speed
# changes in phases of seconds, so one burst of samples sees only one phase.
SETUP_RUNS = 6
SETUP_CODE = "import operlax.cli; operlax.cli.main(['--help'])"
RUN_TIMEOUT_S = 170.0
PINNED = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
          "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")
# ROADMAP open item 1 baselines: (row, per-layer source, seconds).
BASELINES = {
    "trajectory": [("evolve, 20k steps", "evolution.evolve", 0.76)],
    # the ROADMAP's 17.7 s is at t_end 20; the workload runs t_end 2, a tenth of the steps
    "theorem": [("theorem_suite, 20 trials, t_end 2", "evolution.theorem_suite", 17.7 / 10)],
    "laws": [("operad_law_suite, 200 trials", "calculus.operad_law_suite", 0.6),
             ("proof_identity_suite, 1000 trials", "oscillator.proof_identity_suite", 0.14),
             ("pde_suite, 100 states", "evolution.pde_suite", 0.08)],
}


def fail(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in PINNED})
    env["PYTHONPATH"] = str(ROOT / "src")
    # setup_s is measured with a warm bytecode cache, as an installed copy has
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    return env


def git_commit() -> str | None:
    git_dir = ROOT / ".git"
    if not git_dir.exists():
        return None
    try:
        out = subprocess.run(["git", f"--git-dir={git_dir}", "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def measure_setup(env: dict, runs: int, warm: bool) -> list[float]:
    """Wall time from a fresh interpreter to a built CLI parser, `runs` times.

    With `warm`, one untimed run first fills the bytecode cache, which a
    user's installed copy also has.
    """
    times = []
    for i in range(runs + warm):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, timeout=30)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            fail(f"CLI set-up failed: {proc.stderr.decode(errors='replace').strip()}")
        if i or not warm:
            times.append(elapsed)
    return times


def tail_percentile(values: list[float]) -> tuple[float, float]:
    """(percentile, value) of the pass times: the nearest rank at p90, lowered
    until ten samples lie beyond it.  Below 20 samples no rank above the
    median has ten beyond it, so the median is reported."""
    xs = sorted(values)
    n = len(xs)
    if n < 20:
        return 50.0, statistics.median(xs)
    rank = min(math.ceil(0.9 * n), n - 10)
    return 100.0 * rank / n, xs[rank - 1]


def run_worker(args, env, deadline) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", str(OUT_DIR)]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        print("perfbench: worker timed out", file=sys.stderr)
        sys.exit(1)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"perfbench: worker exited with code {proc.returncode}", file=sys.stderr)
        sys.exit(1)
    return json.loads(lines[-1])


def end_to_end(res: dict, setup: list[float]) -> tuple[dict, list[str]]:
    """End-to-end metrics of one run.

    The host's speed drifts by up to 1.8x over minutes, so raw pass times of
    the same code spread up to 0.3 of their median between runs, more than
    the largest bound a metric may have (0.25).  The gated throughput and tail are
    therefore paired: each pass time is divided by the mean of the reference
    times measured just before and after it, giving its cost in reference
    blocks.  The raw figures are printed beside them.
    """
    passes, refs = res["pass_s"], res["ref_s"]
    cost = [p / ((refs[k] + refs[k + 1]) / 2) for k, p in enumerate(passes)]
    work = res["work_per_pass"] * len(passes)
    pct, p90_ref = tail_percentile(cost)
    _, p90_s = tail_percentile(passes)
    values = {
        "setup_s": statistics.median(setup),
        "work_per_ref": work / sum(cost),
        "pass_p90_ref": p90_ref,
        "peak_rss_mb": res["peak_rss_mb"],
    }
    fail_frac = res["failed"] / res["attempted"]
    unit = res["work_unit"]
    notes = [
        f"setup_s       {values['setup_s']:.4f} s  median of {len(setup)} fresh interpreters",
        f"work_per_ref  {values['work_per_ref']:.6g} {unit}/ref  "
        f"{len(passes)} passes x {res['work_per_pass']} {unit}, {sum(cost):.1f} ref timed",
        f"work_per_s    {work / sum(passes):.6g} {unit}/s  {sum(passes):.3f} s timed (raw)",
        f"pass_p90_ref  {p90_ref:.4f} ref  p{pct:.0f} of {len(passes)} passes "
        f"(median {statistics.median(cost):.4f} ref)",
        f"pass_p90_s    {p90_s:.4f} s  p{pct:.0f} of {len(passes)} passes "
        f"(median {statistics.median(passes):.4f} s, raw)",
        f"reference     {statistics.median(refs):.4f} s  median of {len(refs)} reference times",
        f"peak_rss_mb   {values['peak_rss_mb']:.1f} MB",
        f"fail_frac     {fail_frac:.6g}  ({res['failed']} of {res['attempted']} items failed)",
    ]
    return values, notes


def layer_values(res: dict, names: list[str]) -> dict:
    """Per-pass per-layer metrics: `<module>.<function>.<stat>` from the spans,
    the rest from counters taken at the module boundaries."""
    layers, counts = res["layers"], res["counts"]
    out = {}
    for name in names:
        base, _, stat = name.rpartition(".")
        if name == "trace.overhead_s":
            value = statistics.median(res["traced_pass_s"]) - statistics.median(res["untraced_pass_s"])
        elif name == "evolution.ns_per_step":
            steps = counts["evolution.steps"]
            value = layers["evolution.evolve"]["self_s"] * 1e9 / steps if steps else 0.0
        elif name in counts:
            value = counts[name]
        else:
            value = layers[base]["calls" if stat == "built" else stat]
        out[name] = value
    return out


def layer_notes(res: dict, values: dict, workload: str, layers: dict, units: dict) -> list[str]:
    """Readable per-layer report; '*' marks the layers this workload should exercise."""
    notes = []
    for name, value in values.items():
        info = layers[name]
        mark = "*" if workload in info["on"] else " "
        notes.append(f"{mark} {name:46s} {value:14.6g} {units[name]:6s} moves {info['moves']}")
    untraced = statistics.median(res["untraced_pass_s"])
    traced = res["traced_pass_s"]
    notes.append(f"tracing overhead {values['trace.overhead_s']:+.4f} s "
                 f"per pass (untraced median {untraced:.4f} s, {res['spans']} spans)")
    for k, (wall, self_sum) in enumerate(zip(traced, res["self_sum_s"])):
        notes.append(f"pass {k}: traced wall {wall:.6f} s, sum of self times {self_sum:.6f} s")
    for row, source, roadmap in BASELINES[workload]:
        stats = res["layers"].get(source)
        if not stats or not stats["calls"]:
            continue
        measured = stats["total_s"] / stats["calls"]
        ratio = measured / roadmap
        flag = "  DIFFERS >2x" if not 0.5 <= ratio <= 2.0 else ""
        notes.append(f"baseline {row}: {measured:.3f} s traced, ROADMAP {roadmap} s "
                     f"(x{ratio:.2f}){flag}")
    return notes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_TIMEOUT_S

    if not (ROOT / "src" / "operlax" / "__init__.py").is_file():
        fail(f"no operlax sources under {ROOT / 'src'}; run from a source checkout")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workload not in workloads:
        fail(f"unknown workload {args.workload!r}; choose from {workloads}")
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    layers = json.loads((HERE / "layers.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    if set(layers) != {m["name"] for m in bench["per_layer"]}:
        fail("perfbench/layers.json and BENCHMARK.json per_layer list different metrics")

    OUT_DIR.mkdir(exist_ok=True)
    env = worker_env()
    setup = [] if args.trace else measure_setup(env, SETUP_RUNS, warm=True)
    res = run_worker(args, env, deadline)
    if not args.trace:
        setup += measure_setup(env, SETUP_RUNS, warm=False)
    res["provenance"].update(git_commit=git_commit(), nproc=os.cpu_count(),
                             affinity=len(os.sched_getaffinity(0)))

    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        values = layer_values(res, names)
        notes = layer_notes(res, values, args.workload, layers, units)
    else:
        values, notes = end_to_end(res, setup)
        res["setup_s"] = setup
        names = [m["name"] for m in bench["end_to_end"]]

    correct = res["failed"] == 0
    line = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in names},
    }
    res["result"] = line
    out = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(res, indent=1) + "\n")

    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace}")
    print("provenance " + json.dumps(res["provenance"], sort_keys=True))
    print("inputs " + json.dumps(res["inputs"], sort_keys=True))
    for note in notes:
        print(note)
    if not correct:
        for msg in res["failures"]:
            print(f"FAILED {msg}")
    print(f"details in {out.relative_to(ROOT)}")
    print(json.dumps(line))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
