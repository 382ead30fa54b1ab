"""Print one SHA-256 per output of the operlax CLI, to compare two checkouts byte for byte.

The outputs are the reports of `verify operad`, `verify identities`,
`pde-check` and `verify theorem --t-end 4` at seeds 0, 7 and 101 (every other
setting at its CLI default), and the trajectory CSVs of the README's
`simulate` example and of two runs whose numbers span very small and very
large magnitudes.  Each report is hashed without its `wall_time_seconds`,
the one field that differs between identical runs.  One more line hashes
what `load_config` makes of a fixed grid of config files (each mode and one
unknown mode, by each field, by each value of CONFIG_VALUES): the resolved
values, or the exception type without its message.  The CLI runs in a
subprocess with the checkout's `src` first on the path, so

    python scripts/report_digests.py               # this checkout
    python scripts/report_digests.py OTHER_CHECKOUT

print the same lines exactly when the two compute the same bytes.  The
repository keeps its lines in REPORT_DIGESTS.txt, and

    python scripts/report_digests.py --check REPORT_DIGESTS.txt

also names on stderr each output whose digest differs from the file's, and
then exits 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SEEDS = (0, 7, 101)
SUITES = {
    "verify-operad": ["verify", "operad"],
    "verify-identities": ["verify", "identities"],
    "pde-check": ["pde-check"],
    "verify-theorem": ["verify", "theorem", "--t-end", "4"],
}
# the README's example, then two runs whose CSVs hold every spelling of a number
# that the formatter rewrites: exponents e-05 to e-09 and [1e-5, 1e-4), then e+17
SIMULATES = {
    "simulate.csv": ["simulate", "--omega", "1", "--q0", "0", "--p0", "1",
                     "--c", "0,0,0,0,1,0,0,0", "--dt", "1e-3", "--t-end", "20"],
    "simulate-small.csv": ["simulate", "--omega", "0.5", "--q0", "1e-5", "--p0", "3e-5",
                           "--c", "0.1,-0.2,0.3,-0.4,0.5,-0.6,0.7,-0.8", "--t-end", "50",
                           "--record-every", "3"],
    "simulate-large.csv": ["simulate", "--omega", "1", "--q0", "1e9", "--p0", "0",
                           "--c", "1,0,0,0,1,0,0,0", "--t-end", "2"],
}

CONFIG_MODES = ("simulate", "verify-operad", "verify-theorem", "verify-identities", "pde-check",
                "nosuch")
CONFIG_FIELDS = ("omega", "q0", "p0", "c", "dt", "t_end", "record_every", "trials", "tol", "seed",
                 "out")
CONFIG_VALUES = [None, True, False, -1, 0, 1, 3, 2 ** 63, 2 ** 64 - 1, 2 ** 64, 2 ** 1100, -1.0,
                 -0.0, 0.0, 1e-3, 0.05, 0.5, 2.5, 3.0, 1e300, float("nan"), float("inf"),
                 float("-inf"), "x", "", "1,2,3,4,5,6,7,8", [0] * 8, [1] * 7,
                 [0, 0, 0, 0, True, 0, 0, 0], [2 ** 1100] + [0] * 7, {"a": 1}, ["a"]]
# each simulate config holds the README example's state, so that simulate's required
# fields do not hide the outcome of the field under test (no other mode takes them);
# one line per config
_CONFIG_PROBE = """
import dataclasses, json, sys
from operlax.cli import load_config
modes, fields, values, path = json.load(sys.stdin)
for mode in modes:
    state = {"omega": 1, "q0": 0, "p0": 1} if mode == "simulate" else {}
    for field in fields:
        for value in values:
            with open(path, "w") as fh:
                json.dump({"mode": mode, **state, field: value}, fh)
            try:
                print(sorted(dataclasses.asdict(load_config(path)).items()))
            except Exception as exc:
                print(type(exc).__name__)
"""


def _config_outcomes(checkout: Path, tmp: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    grid = json.dumps([CONFIG_MODES, CONFIG_FIELDS, CONFIG_VALUES, str(Path(tmp, "config.json"))])
    done = subprocess.run([sys.executable, "-c", _CONFIG_PROBE], input=grid.encode(), env=env,
                          capture_output=True)
    if done.returncode != 0:
        sys.exit(f"config probe exited {done.returncode}: {done.stderr.decode().strip()}")
    return done.stdout


def _run(checkout: Path, argv: list, out: Path) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "operlax.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    # exit 1 is a failed check, whose report is still written and hashed
    if done.returncode not in (0, 1) or not out.exists():
        sys.exit(f"operlax {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")
    return out.read_bytes()


def digests(checkout: Path) -> dict:
    """File name -> SHA-256 hex digest of each output, in a fixed order."""
    found = {}
    with tempfile.TemporaryDirectory() as tmp:
        for suite, argv in SUITES.items():
            for seed in SEEDS:
                name = f"{suite}-seed{seed}.json"
                report = json.loads(_run(checkout, [*argv, "--seed", str(seed)], Path(tmp, name)))
                del report["wall_time_seconds"]
                found[name] = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
        for name, argv in SIMULATES.items():
            found[name] = hashlib.sha256(_run(checkout, argv, Path(tmp, name))).hexdigest()
        found["config-acceptance"] = hashlib.sha256(_config_outcomes(checkout, tmp)).hexdigest()
    return found


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="repository whose src/ is run (default: this one)")
    parser.add_argument("--check", type=Path, metavar="FILE",
                        help="compare with the lines FILE holds and exit 1 if any output differs")
    args = parser.parse_args()
    found = digests(args.checkout.resolve())
    for name, digest in found.items():
        print(f"{digest}  {name}")
    if args.check is not None:
        expected = {name: digest for digest, name in
                    (line.split("  ", 1) for line in args.check.read_text().splitlines())}
        differ = [name for name in {**expected, **found} if expected.get(name) != found.get(name)]
        for name in differ:
            print(f"differs: {name}", file=sys.stderr)
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
