"""Exception types shared across the package, and the input rules that raise ValueError.

The rules need no numpy, so the CLI checks its fields with them before any
library module loads.  A bool is neither a number nor an int to any rule.
"""

import numbers
import sys

__all__ = ["BranchCutError", "ConfigError", "DegenerateStateError", "DimensionMismatchError",
           "DivergenceError", "EnergyOverflowError"]


class DimensionMismatchError(ValueError):
    """Operands have incompatible dimension, arity, or coefficient shape."""


class DegenerateStateError(ValueError):
    """Operation requires positive oscillator energy but H = 0."""


class EnergyOverflowError(ValueError):
    """Finite (q, p) whose energy H = (p^2 + omega^2 q^2) / 2 overflows."""


class BranchCutError(RuntimeError):
    """A finite-difference stencil straddles the half-angle branch cut."""


class DivergenceError(RuntimeError):
    """Integration produced a non-finite value."""


class ConfigError(ValueError):
    """Invalid run configuration (bad flag, field, or file)."""


def _check_positive(**values):
    """Raise ValueError unless each value is a number > 0 (NaN is not)."""
    for name, x in values.items():
        if isinstance(x, bool) or not (isinstance(x, numbers.Real) and x > 0.0):
            raise ValueError(f"{name} must be a number > 0, got {x!r}")


def _check_finite(**values):
    """Raise ValueError unless each value is a number that a finite double holds (NaN,
    +-inf and an int past the largest double are not)."""
    for name, x in values.items():
        if isinstance(x, bool) or not (isinstance(x, numbers.Real)
                                       and abs(x) <= sys.float_info.max):
            raise ValueError(f"{name} must be a finite number, got {x!r}")


def _check_int(minimum, **values):
    """Raise ValueError unless each value is an int >= minimum."""
    for name, n in values.items():
        if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < minimum:
            raise ValueError(f"{name} must be an int >= {minimum}, got {n!r}")


def _check_steps(t_end, dt):
    """Raise ValueError unless t_end is a number > 0 that dt > 0 divides into at most
    2**53 steps: times are step * dt, exact only while the step index is."""
    if isinstance(t_end, bool) or not (isinstance(t_end, numbers.Real) and t_end > 0.0
                                       and t_end <= sys.float_info.max and t_end / dt <= 2.0 ** 53):
        raise ValueError(f"t_end must be positive with at most 2**53 steps, got {t_end!r}")
