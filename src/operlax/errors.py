"""Exception types shared across the package."""


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
