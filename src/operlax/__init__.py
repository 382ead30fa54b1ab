"""Operadic calculus on finite-dimensional spaces and Lax flows built on it.

The package has four layers: dense multilinear operations (`multilinear`),
the composition calculus with its law checkers (`calculus`), the harmonic
oscillator model with its half-angle phase functions (`oscillator`), and the
coupled integration plus verification machinery (`evolution`).  `cli` exposes
all of it as the ``operlax`` command.  The package exports every name in each
module's ``__all__``, bound on first use, so that importing the package (or
the CLI) does not import numpy.
"""

import importlib as _importlib

__version__ = "0.1.0"

_MODULES = ("calculus", "errors", "evolution", "multilinear", "oscillator")


def _exports() -> list:
    """Import the modules (and numpy), bind their names here; return them and the module names."""
    names = list(_MODULES)
    for short in _MODULES:
        module = _importlib.import_module(f"{__name__}.{short}")
        names += module.__all__
        globals().update({n: getattr(module, n) for n in module.__all__ if n not in globals()})
    return names


def __getattr__(name):
    if name != "cli":  # `from operlax import cli` asks first; the import system then imports it
        globals()["__all__"] = _exports()
    if name in globals():
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_exports()})
