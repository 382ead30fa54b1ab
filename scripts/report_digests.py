"""Print one SHA-256 per output of the operlax CLI, to compare two checkouts byte for byte.

The outputs are the reports of `verify operad`, `verify identities`,
`pde-check` and `verify theorem --t-end 4` at seeds 0, 7 and 101 (every other
setting at its CLI default), and the trajectory CSVs of the README's
`simulate` example and of two runs whose numbers span very small and very
large magnitudes.  Each report is hashed without its `wall_time_seconds`,
the one field that differs between identical runs.  One more line hashes
what `load_config` makes of a fixed grid of config files (each mode and one
unknown mode, by each field, by each value of CONFIG_VALUES): the resolved
values, or the exception type without its message.  The last line,
`host-primitives`, fingerprints this host's numbers rather than operlax's:
one 8-hex-digit SHA-256 prefix per primitive of PRIMITIVES (libm, numpy's
elementwise functions and `matmul` at the kernels' shapes, numpy's and
orjson's versions) over fixed probes, so a host whose line differs names
the primitive that differs.  The report and CSV lines read those
primitives' bits, so they hold as stored only where the fingerprint does.
The CLI runs in a subprocess with the checkout's `src` first on the path, so

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
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import orjson

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


def _probe(n: int, scale: float) -> list:
    # n fixed doubles in [-scale, scale), from integer steps and one rounded division
    return [((k * 7919) % 10007 - 5003.5) * scale / 5003.5 for k in range(n)]


def _numpy(name: str, *args):
    return [getattr(np, name)(*(np.array(a) for a in args))]


def _matmuls(*shapes):
    # each (a, b, transposed) of the list as one product, a's last two axes swapped if so
    out = []
    for a_shape, b_shape, transposed in shapes:
        a, b = (np.reshape(_probe(int(np.prod(x)), 1.0), x) for x in (a_shape, b_shape))
        out.append((np.swapaxes(a, -1, -2) if transposed else a) @ b)
    return out


_ANGLES, _POSITIVE = _probe(4096, 60.0), [abs(x) + 1e-3 for x in _probe(4096, 40.0)]
# primitive -> its probe outputs: libm per point, numpy's loops over arrays, and matmul
# at the shapes of calculus._compose (a transposed view), evolution._increment_matrix and
# _increment_powers, _rk4_chunks (one state times a chunk of powers) and _Batch.analytic_mu
PRIMITIVES = {
    "math.sin": lambda: [math.sin(x) for x in _ANGLES],
    "math.cos": lambda: [math.cos(x) for x in _ANGLES],
    "math.atan2": lambda: [math.atan2(y, x) for y, x in zip(_ANGLES, reversed(_ANGLES))],
    "math.pow": lambda: [math.pow(x, e) for x in _POSITIVE for e in (0.25, 1.5)],
    "math.sqrt": lambda: [math.sqrt(x) for x in _POSITIVE],
    "numpy.sin": lambda: _numpy("sin", _ANGLES),
    "numpy.cos": lambda: _numpy("cos", _ANGLES),
    "numpy.exp": lambda: _numpy("exp", _ANGLES),
    "numpy.sqrt": lambda: _numpy("sqrt", _POSITIVE),
    "numpy.power": lambda: _numpy("power", _POSITIVE, 1.5),
    "numpy.matmul": lambda: _matmuls(((7, 1, 3, 27), (7, 9, 3, 3), True),
                                     ((7, 1, 2, 4), (7, 4, 2, 2), True),
                                     ((3, 10, 10), (3, 10, 10), False),
                                     ((3, 10, 10), (3, 10, 1280), False),
                                     ((10,), (10, 2570), False),
                                     ((2,), (2, 12802), False),
                                     ((20, 257, 4), (20, 4, 8), False)),
    "numpy.version": lambda: np.__version__,
    "orjson.version": lambda: orjson.__version__,
}


def host_primitives() -> dict:
    """Primitive -> the first 8 hex digits of the SHA-256 of its probe outputs' bytes."""
    found = {}
    for name, probe in PRIMITIVES.items():
        out = probe()
        data = out.encode() if isinstance(out, str) else b"".join(
            np.asarray(x, dtype=float).tobytes() for x in out)
        found[name] = hashlib.sha256(data).hexdigest()[:8]
    return found


def _config_outcomes(checkout: Path, tmp: str) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    grid = json.dumps([CONFIG_MODES, CONFIG_FIELDS, CONFIG_VALUES, str(Path(tmp, "config.json"))])
    done = subprocess.run([sys.executable, "-c", _CONFIG_PROBE], input=grid.encode(), env=env,
                          capture_output=True)
    if done.returncode != 0:
        sys.exit(f"config probe exited {done.returncode}: {done.stderr.decode().strip()}")
    return done.stdout


def _run(checkout: Path, argv: list, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    done = subprocess.run([sys.executable, "-m", "operlax.cli", *argv, "--out", str(out)],
                          env=env, capture_output=True, text=True)
    # exit 1 is a failed check, whose report is still written and hashed
    if done.returncode not in (0, 1) or not out.exists():
        sys.exit(f"operlax {' '.join(argv)} exited {done.returncode}: {done.stderr.strip()}")


def output_digests(run, tmp: str) -> dict:
    """Name -> SHA-256 hex digest of each report and CSV, in a fixed order, where
    run(argv, out) writes the output of `operlax *argv --out out`."""
    found = {}
    for suite, argv in SUITES.items():
        for seed in SEEDS:
            name = f"{suite}-seed{seed}.json"
            run([*argv, "--seed", str(seed)], Path(tmp, name))
            report = json.loads(Path(tmp, name).read_bytes())
            del report["wall_time_seconds"]
            found[name] = hashlib.sha256(json.dumps(report, indent=2).encode()).hexdigest()
    for name, argv in SIMULATES.items():
        run(argv, Path(tmp, name))
        found[name] = hashlib.sha256(Path(tmp, name).read_bytes()).hexdigest()
    return found


def digests(checkout: Path) -> dict:
    """File name -> SHA-256 hex digest of each output, in a fixed order, then the
    config-acceptance and host-primitives lines."""
    with tempfile.TemporaryDirectory() as tmp:
        found = output_digests(lambda argv, out: _run(checkout, argv, out), tmp)
        found["config-acceptance"] = hashlib.sha256(_config_outcomes(checkout, tmp)).hexdigest()
    found["host-primitives"] = "".join(host_primitives().values())
    return found


def read_lines(path: Path) -> dict:
    """Name -> digest of each line of a digest file."""
    return {name: digest for digest, name in
            (line.split("  ", 1) for line in path.read_text().splitlines())}


def differing_primitives(stored: str) -> list:
    """The primitives whose fingerprint on this host differs from a stored
    host-primitives digest (all of them if its length does not match PRIMITIVES)."""
    here = host_primitives()
    if len(stored) != 8 * len(here):
        return list(here)
    return [name for k, (name, part) in enumerate(here.items()) if stored[8 * k:8 * k + 8] != part]


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
        expected = read_lines(args.check)
        differ = [name for name in {**expected, **found} if expected.get(name) != found.get(name)]
        for name in differ:
            detail = ""
            if name == "host-primitives" and name in expected:
                detail = f" ({', '.join(differing_primitives(expected[name]))})"
            print(f"differs: {name}{detail}", file=sys.stderr)
        sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
