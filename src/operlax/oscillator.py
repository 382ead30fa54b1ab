"""Harmonic-oscillator model: Hamiltonian, Lax matrices, and the half-angle machinery.

The structure-constant flow of the oscillator linearizes in four phase
functions (A+, A-, D+, D-).  They are half-angle functions of the phase-space
point: writing z = p + i*omega*q, the pair (A+, A-) is sqrt(2)*sqrt(z) and
(D+, D-) is sqrt(2)*z**(3/2) split into real and imaginary parts.  Being
half-angle objects they are double-valued over phase space; this module
provides the single-valued principal branch (for pointwise work such as PDE
stencils), and its array form takes any angle, so an unwrapped one follows the
continuous branch along a trajectory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .calculus import _check_suite_args, _trial_raws, _worst_case_reports, trial_rng
from .errors import DegenerateStateError, EnergyOverflowError, _check_finite
from .multilinear import Operation, make_operation

__all__ = ["OscState", "MuParams", "hamiltonian", "lax_matrices", "principal_theta",
           "aux_functions_principal", "g_functions", "mu_family", "gamma_structural_zeros",
           "proof_identity_suite"]


@dataclass(frozen=True)
class OscState:
    """One phase-space point (q, p) of an oscillator with angular frequency omega."""

    omega: float
    q: float
    p: float

    def __post_init__(self):
        _check_finite(omega=self.omega, q=self.q, p=self.p)
        if not self.omega > 0.0:
            raise ValueError(f"omega must be positive, got {self.omega}")
        if not math.isfinite(hamiltonian(self)):
            raise EnergyOverflowError(f"energy of (q, p) = ({self.q!r}, {self.p!r}) overflows")


@dataclass(frozen=True)
class MuParams:
    """The eight real parameters C1..C8 of the solution family (one-based labels)."""

    c: tuple

    def __post_init__(self):
        c = tuple(self.c)
        if len(c) != 8:
            raise ValueError(f"need exactly 8 parameters, got {len(c)}")
        _check_finite(**{f"C{i}": x for i, x in enumerate(c, 1)})
        object.__setattr__(self, "c", tuple(float(x) for x in c))

    @classmethod
    def zeros(cls) -> "MuParams":
        return cls((0.0,) * 8)


def hamiltonian(s: OscState) -> float:
    """H = (p^2 + omega^2 q^2) / 2."""
    return 0.5 * (s.p * s.p + s.omega * s.omega * s.q * s.q)


def lax_matrices(s: OscState) -> tuple:
    """Classical Lax pair: L = [[p, wq], [wq, -p]], M = (w/2)[[0, -1], [1, 0]]."""
    w, q, p = s.omega, s.q, s.p
    L = make_operation(2, 1, [p, w * q, w * q, -p])
    M = make_operation(2, 1, [0.0, -w / 2.0, w / 2.0, 0.0])
    return L, M


def _aux_radius(h):
    # |A| = sqrt(2) (2H)^(1/4); a float takes libm's pow, an array numpy's
    return math.sqrt(2.0) * (2.0 * h) ** 0.25


def _aux_values(theta, h):
    # the phase functions at any angle (continuous branch) and energy, elementwise
    return _aux_at_radius(theta, _aux_radius(h))


def _aux_at_radius(theta, r):
    ap = r * np.cos(0.5 * theta)
    am = r * np.sin(0.5 * theta)
    dp = 0.5 * ap * (ap * ap - 3.0 * am * am)
    dm = 0.5 * am * (3.0 * ap * ap - am * am)
    return ap, am, dp, dm


def _libm(f, *arrays) -> np.ndarray:
    """f over broadcast arrays, one point at a time: numpy's atan2, pow, sin and cos
    differ from libm's in the last bit for some inputs, and the reports keep libm's."""
    xs = np.broadcast_arrays(*arrays)
    return np.reshape([f(*x) for x in zip(*(a.ravel().tolist() for a in xs))], xs[0].shape)


def _principal_angle(y, x):
    """Angle of the point (x, y) in (-pi, pi] by libm's atan2; _libm maps it over arrays.

    No answer depends on the sign of a zero: an angle of -0.0 (y = -0.0, or a
    tiny negative y beside a large x) is reported as 0.0, and -pi as pi.
    """
    theta = math.atan2(y, x) + 0.0
    return theta + 2.0 * math.pi * (theta == -math.pi)


def principal_theta(s: OscState) -> float:
    """Principal phase angle of (p, omega*q) in (-pi, pi]; zero at the origin."""
    if s.q == 0.0 and s.p == 0.0:
        return 0.0
    return _principal_angle(s.omega * s.q, s.p)


def aux_functions_principal(s: OscState) -> tuple:
    """(A+, A-, D+, D-) on the single-valued branch A+ >= 0, at the angle
    principal_theta(s) in (-pi, pi]: the one-row case of _principal_aux.

    The half-angle construction A+/- = sqrt(2) (2H)^(1/4) (cos, sin)(theta/2)
    satisfies all three defining relations (sum of squares, difference of
    squares, product) and is the unique choice with A+ >= 0 on this range.
    At H = 0 everything is zero.
    """
    row = _principal_aux(*(np.array([x]) for x in (principal_theta(s), hamiltonian(s))))
    return tuple(float(v[0]) for v in row)


def _principal_aux(theta, h) -> tuple:
    """(A+, A-, D+, D-) at arrays of principal angles theta, which
    _libm(_principal_angle, w q, p) gives, and energies h, with libm's radii."""
    return _aux_at_radius(theta, _libm(_aux_radius, h))


def _a_dots(omega, dq, dp, ap, am):
    # Cramer solution of  A+ dA+ - A- dA- = dp,  A- dA+ + A+ dA- = w dq;
    # the determinant A+^2 + A-^2 = 2 sqrt(2H) is positive away from H = 0.
    det = ap * ap + am * am
    da_p = (ap * dp + am * omega * dq) / det
    da_m = (ap * omega * dq - am * dp) / det
    return da_p, da_m


def _g_values(omega, dq, dp, ap, am, d_plus, d_minus):
    da_p, da_m = _a_dots(omega, dq, dp, ap, am)
    dd_p = 0.5 * da_p * (ap * ap - 3.0 * am * am) + ap * (ap * da_p - 3.0 * am * da_m)
    dd_m = 0.5 * da_m * (3.0 * ap * ap - am * am) + am * (3.0 * ap * da_p - am * da_m)
    return (
        da_p + 0.5 * omega * am,
        da_m - 0.5 * omega * ap,
        dd_p + 1.5 * omega * d_minus,
        dd_m - 1.5 * omega * d_plus,
    )


def g_functions(s: OscState, dq: float, dp: float) -> tuple:
    """The four linear-flow residuals for candidate time derivatives (dq, dp).

    Solves for dA+/dt, dA-/dt from the differentiated defining relations,
    chains to dD+/dt, dD-/dt, and returns

        (dA+ + (w/2) A-,  dA- - (w/2) A+,
         dD+ + (3w/2) D-, dD- - (3w/2) D+).

    All four vanish exactly when (dq, dp) are the canonical equations of
    motion; away from that they measure how far the candidate flow is from
    the oscillator flow.  Requires H > 0.
    """
    if hamiltonian(s) <= 0.0:
        raise DegenerateStateError("phase functions have no derivatives at H = 0")
    return tuple(float(v) for v in _g_values(s.omega, dq, dp, *aux_functions_principal(s)))


def _family_coeffs(ap, am, dp, dm, c) -> np.ndarray:
    # structure constants in flat order (output index first, one-based labels
    # mu_111, mu_112, ..., mu_222); works elementwise on arrays as well
    c1, c2, c3, c4, c5, c6, c7, c8 = c
    return np.stack(
        [
            c5 * am + c6 * ap + c7 * dm + c8 * dp,
            c1 * ap + c2 * am - c7 * dp + c8 * dm,
            -c1 * ap - c2 * am - c3 * ap - c4 * am - c5 * ap + c6 * am - c7 * dp + c8 * dm,
            -c3 * am + c4 * ap - c7 * dm - c8 * dp,
            c3 * ap + c4 * am - c7 * dp + c8 * dm,
            c1 * am - c2 * ap + c3 * am - c4 * ap + c5 * am + c6 * ap - c7 * dm - c8 * dp,
            -c1 * am + c2 * ap - c7 * dm - c8 * dp,
            -c5 * ap + c6 * am + c7 * dp - c8 * dm,
        ],
        axis=-1,
    )


# The 8x8 constraint matrix is the family's matrix in C at the four G values:
# Gamma(G).T @ C == _family_coeffs(*G, C), rows C1..C8, columns mu in flat order.
# At G = (1, 2, 3, 4) each entry is 0 or +-k, k the one-based G it takes; the
# zeros hold for any state.
_GAMMA = _family_coeffs(1.0, 2.0, 3.0, 4.0, np.eye(8))
_GAMMA_INDEX = np.abs(_GAMMA).astype(int)
_GAMMA_SIGN = np.sign(_GAMMA)


def _gamma_from_g(g: tuple) -> np.ndarray:
    # g holds the four G values, floats or arrays over trials: shape (..., 8, 8)
    return np.stack(np.broadcast_arrays(0.0, *g), axis=-1)[..., _GAMMA_INDEX] * _GAMMA_SIGN


def gamma_structural_zeros() -> np.ndarray:
    """Boolean 8x8 mask of the entries that are zero for every state."""
    return _GAMMA_INDEX == 0


def mu_family(s: OscState, params: MuParams) -> Operation:
    """Eight-parameter family of evolving binary multiplications on 2-dim V.

    Each structure constant is a fixed signed combination of the principal-
    branch phase functions with the caller's C coefficients; the map C -> mu
    is linear.
    """
    return make_operation(2, 2, _family_coeffs(*aux_functions_principal(s), params.c))


def _cramer_residuals(w, q, p, h, ap, am, d_plus, d_minus) -> tuple:
    # elementwise on arrays as well; Delta = p^2 + (w q)^2 is the Cramer determinant
    delta = p * p + (w * q) * (w * q)
    return (delta - 2.0 * h,
            (d_minus * p - d_plus * w * q) - 2.0 * am * h,
            (d_plus * p + d_minus * w * q) - 2.0 * ap * h)


# Frequencies the theorem and PDE suites draw omega from.
_OMEGAS = (0.5, 1.0, 2.0)


def _trial_draws(seed, ks: range, ranges, pick_omega: bool) -> np.ndarray:
    """Draws of trials ks, one column each from the trial's own stream: with pick_omega
    first omega, as rng.choice(_OMEGAS) draws it, then one double u per (lo, hi) row of
    ranges, mapped to lo + (hi - lo) u as Generator.uniform does.  They come from all
    streams' raw words at once (_trial_raws): omega by Lemire's draw (low * 3) >> 32 on
    the first word's low 32 bits, u = (raw >> 11) 2**-53.  A low word of 0 (Lemire's
    one rejection for three values) draws from each trial_rng(seed, k) in turn."""
    k = int(pick_omega)
    raws = _trial_raws(seed, ks, len(ranges) + k)
    if (raws[:, :k] & 0xFFFFFFFF).all():
        w = np.take(_OMEGAS, (raws[:, 0] & 0xFFFFFFFF) * 3 >> 32) if k else []
        u = (raws[:, k:] >> 11) * 2.0 ** -53
    else:
        w, u = [], []
        for rng in (trial_rng(seed, j) for j in ks):
            if pick_omega:
                w.append(_OMEGAS[rng.integers(0, 3)])
            u.append(rng.random(len(ranges)))
    lo, hi = np.transpose(ranges)[:, :, None]
    draws = lo + (hi - lo) * np.reshape(u, (-1, len(ranges))).T
    return np.vstack((w, draws)) if pick_omega else draws


def _polar(w, h, theta) -> tuple:
    """(q, p) of the states of frequency w and energy h at principal angle theta,
    elementwise (theta = 0 puts q = 0, p > 0), with libm's sin and cos (_libm)."""
    r = np.sqrt(2.0 * h)
    return r * _libm(math.sin, theta) / w, r * _libm(math.cos, theta)


# (omega, energy, angle, dq, dp) of the identity suite's trials, each uniform in [low, high]
_IDENTITY_RANGES = ((0.5, 2.0), (0.1, 10.0), (-math.pi, math.pi), (-2.0, 2.0), (-2.0, 2.0))


def _identity_rows(w, q, p, dq, dp) -> np.ndarray:
    """The six scaled residuals of proof_identity_suite, one row per trial,
    for arrays (omega, q, p, dq, dp) over trials; H > 0 throughout."""
    h = 0.5 * (p * p + w * w * q * q)
    aux = _principal_aux(_libm(_principal_angle, w * q, p), h)
    ap, am = aux[:2]
    sq2h = np.sqrt(2.0 * h)
    rel = np.maximum.reduce([np.abs(ap ** 2 + am ** 2 - 2.0 * sq2h),
                             np.abs(ap ** 2 - am ** 2 - 2.0 * p),
                             np.abs(ap * am - w * q)])
    da_p, da_m = _a_dots(w, dq, dp, ap, am)
    row1 = (ap * da_p + am * da_m) - (p * dp + w ** 2 * q * dq) / sq2h
    cramer = np.max(np.abs(_cramer_residuals(w, q, p, h, *aux)), axis=0)
    g_on = _g_values(w, p, -w * w * q, *aux)
    gamma_off = _gamma_from_g(_g_values(w, dq, dp, *aux))[:, gamma_structural_zeros()]
    return np.column_stack((rel / (1.0 + sq2h), np.abs(row1) / (1.0 + h),
                            cramer / (1.0 + h ** 1.5),
                            np.max(np.abs(g_on), axis=0) / (1.0 + h),
                            np.max(np.abs(_gamma_from_g(g_on)), axis=(1, 2)) / (1.0 + h),
                            np.max(np.abs(gamma_off), axis=1)))


def proof_identity_suite(trials: int, seed: int, tol: float) -> list:
    """Randomized verification of every pointwise identity behind the mu family.

    Residuals are magnitude-scaled before aggregation: the defining relations
    by 1 + sqrt(2H), the determinant identities by 1 + H^(3/2), and the G and
    Gamma checks by 1 + H.  Raises ValueError unless seed and trials are ints >= 0
    and tol > 0.
    """
    _check_suite_args(seed, tol, trials=trials)
    names = [
        "aux-defining-relations",
        "aux-derivative-row1",
        "cramer-identities",
        "g-onshell",
        "gamma-onshell",
        "gamma-sparsity",
    ]

    def rows(ks):
        w, h, theta, dq, dp = _trial_draws(seed, ks, _IDENTITY_RANGES, False)
        return _identity_rows(w, *_polar(w, h, theta), dq, dp)

    return _worst_case_reports(names, trials, rows, tol)
