"""The per-layer rows of BENCHMARK.json name what the benchmark's tracer can find.

The tracer wraps the functions listed in each layer module's ``__all__`` and
defined in that module; a per-layer row naming anything else has no span, and
``perfbench/run.py --trace 1`` fails on it.  BENCHMARK.json and perfbench/ are
only read here.
"""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from operlax import calculus, cli, evolution, multilinear, oscillator

MODULES = {"multilinear": multilinear, "calculus": calculus, "oscillator": oscillator,
           "evolution": evolution, "cli": cli}
# counts taken at module boundaries, not spans of a function
BOUNDARY_COUNTERS = {"evolution.steps", "evolution.records", "evolution.csv_bytes",
                     "evolution.ns_per_step", "trace.overhead_s"}
# names that are not functions of a layer module, each with the attribute it needs:
# the CLI's counters are taken around cli.main
OTHER_NAMES = {"cli.main": "main", "cli.bytes_written": "main", "cli.exit_nonzero": "main",
               "multilinear.Operation": "Operation"}


def _per_layer_names():
    bench = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer"] if m["name"] not in BOUNDARY_COUNTERS]


@pytest.mark.parametrize("name", _per_layer_names())
def test_per_layer_row_names_a_traced_layer(name):
    key = name if name in OTHER_NAMES else name.rpartition(".")[0]
    module_name, attr = key.split(".")
    module = MODULES[module_name]
    if key in OTHER_NAMES:
        assert hasattr(module, OTHER_NAMES[key])
        return
    assert module_name != "cli" and attr in module.__all__
    fn = getattr(module, attr)
    assert inspect.isfunction(fn) and fn.__module__ == module.__name__


def test_tracer_installs_on_the_library():
    # install() reads names beyond __all__ (evolution.trajectory_csv_lines and evolve,
    # cli.main, Operation.__post_init__): a change that drops one fails here, in a
    # fresh interpreter so the patching stays out of this one
    root = Path(__file__).resolve().parents[1]
    code = ("import spans; from operlax import evolution; tracer = spans.Tracer(); "
            "tracer.install(); print(tracer.active, evolution.evolve.__wrapped__.__name__)")
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1",
           "PYTHONPATH": os.pathsep.join([str(root / "src"), str(root / "perfbench")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True evolve\n"
