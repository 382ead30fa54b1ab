"""n-ary multilinear operations on a finite-dimensional real vector space.

An ``Operation`` of arity n on a d-dimensional space V is a multilinear map
V^n -> V stored as a dense rank-(n+1) coefficient tensor.  These objects are
the concrete carrier for everything else in the package: binary
multiplications, linear operators, and all of their compositions live here.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError

__all__ = [
    "Operation",
    "make_operation",
    "identity_operation",
    "evaluate",
    "operation_to_dict",
    "operation_from_dict",
]


def _finite(x: np.ndarray) -> np.ndarray:
    # a non-finite entry of a result whose inputs are finite is an overflow
    if not np.isfinite(x).all():
        raise ValueError("coefficients must all be finite")
    return x


def _coeff_count(dim, arity, size: int) -> int:
    """dim**(arity+1) with the exponent capped at size's bit length, past which a dim >= 2
    exceeds size; a DimensionMismatchError unless dim and arity are ints >= 1, not bools."""
    for name, n in (("dim", dim), ("arity", arity)):
        if not (type(n) is int or isinstance(n, np.integer)) or n < 1:
            raise DimensionMismatchError(f"{name} must be an int >= 1, got {n!r}")
    return int(dim) ** min(int(arity) + 1, size.bit_length() + 1)


@dataclass(frozen=True, eq=False)
class Operation:
    """A multilinear map f: V^arity -> V with dense coefficients.

    Coefficients are stored flat in row-major order over the index tuple
    (i, j1, ..., jn): the output index i is most significant, input indices
    follow left to right, all zero based.  The flat position of f^i_{j1...jn}
    is therefore ((i*d + j1)*d + j2)*d + ... for d = dim.  Human-facing labels
    (documentation, CSV headers) use one-based subscripts, so ``mu_111`` is
    the coefficient with i = j1 = j2 = 0.

    The reduced degree ``arity - 1`` drives every sign convention in the
    composition calculus.  Arity 0 is not representable: a nullary part is
    never needed here and keeping arity >= 1 simplifies the index algebra.
    """

    dim: int
    arity: int
    coeffs: np.ndarray = field(repr=False)

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float).reshape(-1)  # the one copy
        if _coeff_count(self.dim, self.arity, coeffs.size) != coeffs.size:
            raise DimensionMismatchError(f"need dim**(arity+1) coefficients for dim={self.dim}, "
                                         f"arity={self.arity}, got {coeffs.size}")
        _finite(coeffs).flags.writeable = False
        # past the frozen __setattr__; int() since json.dumps refuses a numpy dim or arity
        self.__dict__.update(coeffs=coeffs, dim=int(self.dim), arity=int(self.arity))

    @property
    def reduced_degree(self) -> int:
        return self.arity - 1

    @property
    def tensor(self) -> np.ndarray:
        """Coefficients reshaped to (d,)*(arity+1): axis 0 output, axes 1..n inputs."""
        return self.coeffs.reshape((self.dim,) * (self.arity + 1))

    def __repr__(self):
        return f"Operation(dim={self.dim}, arity={self.arity})"


def make_operation(dim: int, arity: int, coeffs) -> Operation:
    """Build an Operation from a flat coefficient array in the layout above."""
    return Operation(dim, arity, np.asarray(coeffs, dtype=float))


def identity_operation(dim: int) -> Operation:
    """The arity-1 unit: coefficient tensor is the d x d identity matrix."""
    return Operation(dim, 1, np.eye(dim).reshape(-1))


def _quiet(fn):
    """Run fn with numpy's overflow and invalid-value warnings off: an overflowed
    intermediate surfaces as the finite check's ValueError, not as stderr lines."""

    @functools.wraps(fn)
    def quiet(*args, **kwargs):
        with np.errstate(over="ignore", invalid="ignore"):
            return fn(*args, **kwargs)

    return quiet


def _as_vector(x, dim: int) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (dim,):
        raise DimensionMismatchError(f"expected a vector of length {dim}, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError("vector entries must be finite")
    return v


@_quiet
def evaluate(f: Operation, args) -> np.ndarray:
    """Apply f to a sequence of arity(f) vectors.

    result[i] = sum over j1..jn of f^i_{j1...jn} * args[0][j1] * ... * args[n-1][jn].
    A result that overflows raises the Operation finite check's ValueError.
    """
    if len(args) != f.arity:
        raise DimensionMismatchError(f"operation of arity {f.arity} got {len(args)} arguments")
    res = f.tensor
    for a in args:
        res = np.tensordot(res, _as_vector(a, f.dim), axes=([1], [0]))
    return _finite(res)


def operation_to_dict(f: Operation) -> dict:
    """JSON-ready form: {"dim": d, "arity": n, "coeffs": [...]} in flat layout order."""
    return {"dim": f.dim, "arity": f.arity, "coeffs": [float(c) for c in f.coeffs]}


def operation_from_dict(obj: dict) -> Operation:
    try:  # a bool, a string or a list is no number, and 2.7 is no size
        sizes, coeffs = (obj["dim"], obj["arity"]), obj["coeffs"]
        if (any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in (*sizes, *coeffs))
                or not all(float(n).is_integer() for n in sizes)):
            raise TypeError(f"got dim={sizes[0]!r}, arity={sizes[1]!r}, coeffs={coeffs!r:.40}")
        return make_operation(*map(int, sizes), coeffs)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"operation object needs int dim/arity, numeric coeffs: {exc}") from exc
