"""Composition calculus on multilinear operations.

Partial compositions insert one operation into an input slot of another with
a sign that depends on the slot and the reduced degree of the inserted
operation.  Total composition sums over slots, and the graded commutator of
total compositions gives the bracket that drives the Lax flows.  The
``check_*`` functions verify the defining laws numerically and report the
worst residual seen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError
from .multilinear import Operation, evaluate, identity_operation

__all__ = [
    "LawReport",
    "partial_compose",
    "total_compose",
    "gerstenhaber_bracket",
    "check_composition_relations",
    "check_graded_jacobi",
    "check_unit_laws",
    "check_compose_evaluate_consistency",
    "random_operation",
    "trial_rng",
    "operad_law_suite",
]


@dataclass(frozen=True)
class LawReport:
    """Outcome of one law check: worst absolute residual over all trials."""

    law_name: str
    trials: int
    max_abs_residual: float
    passed: bool
    worst_case_seed: int = -1

    def to_dict(self) -> dict:
        return {
            "law": self.law_name,
            "trials": self.trials,
            "max_abs_residual": float(self.max_abs_residual),
            "pass": bool(self.passed),
            "seed": int(self.worst_case_seed),
        }


def _require_same_dim(f: Operation, g: Operation):
    if f.dim != g.dim:
        raise DimensionMismatchError(f"dimension mismatch: {f.dim} vs {g.dim}")


def _sign(exponent: int) -> float:
    return -1.0 if exponent % 2 else 1.0


def partial_compose(f: Operation, g: Operation, i: int) -> Operation:
    """Insert g into input slot i (zero-based) of f.

    The result has arity arity(f) + arity(g) - 1 and carries the graded sign
    (-1)**(i * reduced_degree(g)).  Coefficients come from contracting f's
    i-th input axis with g's output axis.
    """
    _require_same_dim(f, g)
    if not 0 <= i <= f.reduced_degree:
        raise IndexError(f"slot {i} out of range for arity-{f.arity} operation")
    m, n = f.arity, g.arity
    tmp = np.tensordot(f.tensor, g.tensor, axes=([1 + i], [0]))
    # tensordot leaves g's input axes trailing; put them back at slot i
    res = np.moveaxis(tmp, list(range(m, m + n)), list(range(1 + i, 1 + i + n)))
    sign = _sign(i * g.reduced_degree)
    return Operation(f.dim, m + n - 1, sign * res.reshape(-1))


def total_compose(f: Operation, g: Operation) -> Operation:
    """Sum of g inserted into every slot of f; arity adds as for partial_compose."""
    _require_same_dim(f, g)
    acc = partial_compose(f, g, 0).coeffs.copy()
    for i in range(1, f.arity):
        acc += partial_compose(f, g, i).coeffs
    return Operation(f.dim, f.arity + g.arity - 1, acc)


def gerstenhaber_bracket(f: Operation, g: Operation) -> Operation:
    """Graded commutator f*g - (-1)^(|f||g|) g*f of total compositions."""
    _require_same_dim(f, g)
    s = _sign(f.reduced_degree * g.reduced_degree)
    fg = total_compose(f, g)
    gf = total_compose(g, f)
    return Operation(f.dim, fg.arity, fg.coeffs - s * gf.coeffs)


def _max_abs_diff(a: Operation, b: Operation) -> float:
    return float(np.max(np.abs(a.coeffs - b.coeffs))) if a.coeffs.size else 0.0


def check_composition_relations(h: Operation, f: Operation, g: Operation, tol: float) -> LawReport:
    """Verify the three-case composition (associativity) relations for (h, f, g).

    Every admissible (i, j) pair in each case range is checked; the ranges are
    iterated independently, so any overlapping pairs are simply checked twice.
    """
    _require_same_dim(h, f)
    _require_same_dim(h, g)
    fr, gr = f.reduced_degree, g.reduced_degree
    sgn = _sign(fr * gr)
    worst = 0.0
    trials = 0
    for i in range(h.reduced_degree + 1):
        hf = partial_compose(h, f, i)
        for j in range(0, i):
            rhs = partial_compose(partial_compose(h, g, j), f, i + gr)
            worst = max(worst, _max_abs_diff(partial_compose(hf, g, j),
                                             Operation(rhs.dim, rhs.arity, sgn * rhs.coeffs)))
            trials += 1
        for j in range(i, i + fr + 1):
            rhs = partial_compose(h, partial_compose(f, g, j - i), i)
            worst = max(worst, _max_abs_diff(partial_compose(hf, g, j), rhs))
            trials += 1
        for j in range(i + f.arity, h.reduced_degree + fr + 1):
            rhs = partial_compose(partial_compose(h, g, j - fr), f, i)
            worst = max(worst, _max_abs_diff(partial_compose(hf, g, j),
                                             Operation(rhs.dim, rhs.arity, sgn * rhs.coeffs)))
            trials += 1
    return LawReport("composition-relations", max(trials, 1), worst, worst <= tol)


def check_graded_jacobi(f: Operation, g: Operation, h: Operation, tol: float) -> LawReport:
    """Three-term graded Jacobi sum for the bracket; residual is its max coefficient."""
    rf, rg, rh = f.reduced_degree, g.reduced_degree, h.reduced_degree
    total = (
        _sign(rf * rh) * gerstenhaber_bracket(gerstenhaber_bracket(f, g), h).coeffs
        + _sign(rg * rf) * gerstenhaber_bracket(gerstenhaber_bracket(g, h), f).coeffs
        + _sign(rh * rg) * gerstenhaber_bracket(gerstenhaber_bracket(h, f), g).coeffs
    )
    worst = float(np.max(np.abs(total)))
    return LawReport("graded-jacobi", 1, worst, worst <= tol)


def check_unit_laws(f: Operation, tol: float) -> LawReport:
    """Left unit in slot 0 and right unit in every slot must reproduce f exactly."""
    unit = identity_operation(f.dim)
    worst = _max_abs_diff(partial_compose(unit, f, 0), f)
    for i in range(f.arity):
        worst = max(worst, _max_abs_diff(partial_compose(f, unit, i), f))
    return LawReport("unit-laws", f.arity + 1, worst, worst <= tol)


def check_compose_evaluate_consistency(
    f: Operation, g: Operation, i: int, trials: int, tol: float, seed: int = 0
) -> LawReport:
    """Coefficient-level composition against direct nested evaluation.

    For random argument tuples, evaluate(f o_i g, args) must equal the signed
    value of f with g applied to its i-th argument block.  This is the oracle
    tying the contraction formulas to the definition.
    """
    rng = trial_rng(seed, 0)
    comp = partial_compose(f, g, i)
    sign = _sign(i * g.reduced_degree)
    worst = 0.0
    for _ in range(trials):
        args = [rng.uniform(-1.0, 1.0, size=f.dim) for _ in range(comp.arity)]
        lhs = evaluate(comp, args)
        inner = evaluate(g, args[i : i + g.arity])
        rhs = sign * evaluate(f, args[:i] + [inner] + args[i + g.arity :])
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return LawReport("compose-evaluate", trials, worst, worst <= tol, seed)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """PCG64 stream for one trial: Generator(PCG64(SeedSequence([seed, trial]))).

    All randomness in the package flows through this helper, so any reported
    worst-case trial can be regenerated from (seed, trial) alone.
    """
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, trial])))


def random_operation(rng: np.random.Generator, dim: int, arity: int) -> Operation:
    """Operation with coefficients drawn uniformly from [-1, 1]."""
    return Operation(dim, arity, rng.uniform(-1.0, 1.0, size=dim ** (arity + 1)))


def _worst_case_reports(names, residuals, tol: float) -> list[LawReport]:
    """One report per name from per-trial residual rows, in trial order.

    Row k holds trial k's residual for each name.  A report keeps the worst
    residual and the trial that produced it; on a tie the last trial wins.
    No rows give residual 0.0 and seed -1.
    """
    worst = [(0.0, -1)] * len(names)
    trials = 0
    for k, row in enumerate(residuals):
        worst = [(r, k) if r >= w[0] else w for r, w in zip(row, worst)]
        trials = k + 1
    return [LawReport(name, trials, r, r <= tol, k) for name, (r, k) in zip(names, worst)]


def operad_law_suite(
    trials: int, seed: int, tol: float, max_dim: int = 3, max_arity: int = 3
) -> list[LawReport]:
    """Random-triple verification of all composition-calculus laws.

    Each trial draws a dimension, three arities, and three random operations
    from its own seeded stream, then exercises the composition relations,
    unit laws, graded antisymmetry, and graded Jacobi identity.  Each report
    aggregates the worst residual over all trials and records the trial index
    that produced it.
    """

    def residuals(k):
        rng = trial_rng(seed, k)
        d = int(rng.integers(1, max_dim + 1))
        ops = [random_operation(rng, d, int(rng.integers(1, max_arity + 1))) for _ in range(3)]
        h, f, g = ops
        s = _sign(f.reduced_degree * g.reduced_degree)
        anti = gerstenhaber_bracket(f, g).coeffs + s * gerstenhaber_bracket(g, f).coeffs
        return (float(np.max(np.abs(anti))),
                check_composition_relations(h, f, g, tol).max_abs_residual,
                check_graded_jacobi(f, g, h, tol).max_abs_residual,
                max(check_unit_laws(op, tol).max_abs_residual for op in ops))

    names = ["antisymmetry", "composition-relations", "graded-jacobi", "unit-laws"]
    return _worst_case_reports(names, map(residuals, range(trials)), tol)
