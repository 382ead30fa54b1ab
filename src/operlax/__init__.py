"""Operadic calculus on finite-dimensional spaces and Lax flows built on it.

The package has four layers: dense multilinear operations (`multilinear`),
the composition calculus with its law checkers (`calculus`), the harmonic
oscillator model with its half-angle phase functions (`oscillator`), and the
coupled integration plus verification machinery (`evolution`).  `cli` exposes
all of it as the ``operlax`` command.  The package exports every name in each
module's ``__all__``, and the exception types of `errors`.
"""

from .calculus import *
from .errors import *
from .evolution import *
from .multilinear import *
from .oscillator import *

__version__ = "0.1.0"
