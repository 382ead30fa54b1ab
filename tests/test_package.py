"""The package exports each layer module's public names, as the same objects, and
importing it or the CLI's start-up does not import numpy."""

import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import operlax
from operlax import calculus, errors, evolution, multilinear, oscillator


@pytest.mark.parametrize("module", [calculus, evolution, multilinear, oscillator],
                         ids=lambda m: m.__name__)
def test_package_exports_every_name_in_all(module):
    assert [n for n in module.__all__ if getattr(operlax, n, None) is not getattr(module, n)] == []


def test_package_exports_every_exception_type():
    types = [v for v in vars(errors).values()
             if inspect.isclass(v) and v.__module__ == errors.__name__]
    assert len(types) == 6
    assert [t for t in types if getattr(operlax, t.__name__, None) is not t] == []


def test_cli_import_and_help_leave_orjson_unloaded():
    # only the trajectory CSV needs orjson: set-up and the other modes do not pay for it
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, operlax.cli\n"
            "try:\n    operlax.cli.main(['--help'])\nexcept SystemExit:\n    pass\n"
            "print('orjson' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"


def _fresh(code: str) -> str:
    """The last line `code` prints in a fresh interpreter that runs this checkout's src."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()[-1]


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["verify", "nosuch"], 2), (["simulate", "--q0", "0", "--p0", "1"], 2),
    (["simulate", "--omega", "1", "--q0", "0", "--p0", "1", "--dt", "-1"], 2),
    (["verify", "operad", "--trials", "0"], 2),
    (["verify", "operad", "--seed", "18446744073709551616"], 2),
], ids=["help", "usage-error", "config-error", "dt-range", "trials-range", "seed-range"])
def test_cli_exits_before_a_mode_without_numpy(argv, code):
    # the library (and numpy with it) loads when a mode runs, not at start-up
    out = _fresh("import contextlib, io, sys, operlax.cli\n"
                 "with contextlib.redirect_stdout(io.StringIO()), "
                 "contextlib.redirect_stderr(io.StringIO()):\n"
                 f"    try:\n        code = operlax.cli.main({argv!r})\n"
                 "    except SystemExit as exc:\n        code = exc.code\n"
                 "print(code, 'numpy' in sys.modules)")
    assert out == f"{code} False"


def test_package_import_leaves_numpy_unloaded():
    assert _fresh("import sys, operlax\nprint('numpy' in sys.modules)") == "False"


def test_from_package_import_cli_leaves_numpy_unloaded():
    # the import system asks the package for `cli` before it imports the submodule
    assert _fresh("import sys\nfrom operlax import cli\nprint('numpy' in sys.modules)") == "False"


def test_star_import_and_dir_list_every_export():
    # each module's __all__, the exception types of `errors` and the five submodules
    types = [n for n, v in vars(errors).items()
             if inspect.isclass(v) and v.__module__ == errors.__name__]
    expected = {*types, "calculus", "errors", "evolution", "multilinear", "oscillator",
                *(n for m in (calculus, evolution, multilinear, oscillator) for n in m.__all__)}
    star, listed = json.loads(_fresh(
        "import json, operlax\nlisted = dir(operlax)\nns = {}\n"
        "exec('from operlax import *', ns)\n"
        "print(json.dumps([sorted(set(ns) - {'__builtins__'}), listed]))"))
    assert set(star) == expected
    assert expected <= set(listed)


def test_suites_take_only_what_a_caller_sets():
    # the paper's sizes, step and per-trajectory tolerances are fixed inside each suite
    params = {name: list(inspect.signature(getattr(operlax, name)).parameters)
              for name in ("operad_law_suite", "proof_identity_suite", "theorem_suite",
                           "pde_suite")}
    assert params == {"operad_law_suite": ["trials", "seed", "tol"],
                      "proof_identity_suite": ["trials", "seed", "tol"],
                      "theorem_suite": ["trials", "seed", "tol", "dt", "t_end"],
                      "pde_suite": ["n_states", "seed", "tol"]}
