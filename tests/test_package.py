"""The package exports each layer module's public names, as the same objects."""

import inspect
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
