"""Exact symbolic certificates of identities the suites check numerically.

sympy evaluates the source's own formulas (`_aux_at_radius`, `_a_dots`,
`_g_values`, `_cramer_residuals`, `_family_coeffs`, the entries of
`structure_rhs_matrix`, the trig basis of `_Batch.analytic_mu` and the
amplitudes of `_Batch.amplitudes`) on symbols: omega, R, phi and C1..C8, at
the phase point p = R^2 cos 2phi, omega q = R^2 sin 2phi, so that 2H = R^4
and the principal angle is 2phi.  Their numpy calls are served by sympy's cos
and sin, and every float constant of the source becomes the rational it
holds.  A residual is proved zero when the numerator of its rational form,
written in c = cos a and s = sin a for each angle a (phi, and the half angle
x where one is taken), leaves no remainder modulo c^2 + s^2 - 1.
"""

import types

import numpy as np
import pytest
import sympy as sp

from operlax import evolution, oscillator
from operlax.evolution import structure_rhs_matrix
from operlax.oscillator import (OscState, _a_dots, _aux_at_radius, _cramer_residuals,
                                _family_coeffs, _g_values, lax_matrices)

W, R, PHI = sp.symbols("omega R phi", positive=True)
C = sp.symbols("C1:9", real=True)
P, Q, H = R ** 2 * sp.cos(2 * PHI), R ** 2 * sp.sin(2 * PHI) / W, R ** 4 / 2


def _vanishes(expr, angles=(PHI,)) -> bool:
    pairs = [sp.symbols(f"c{i} s{i}") for i in range(len(angles))]
    expr = sp.expand_trig(sp.nsimplify(expr, rational=True))
    expr = expr.subs({f(a): v for a, pair in zip(angles, pairs)
                      for f, v in zip((sp.cos, sp.sin), pair)})
    numerator = sp.expand(sp.numer(sp.together(expr)))
    for c, s in pairs:
        numerator = sp.rem(numerator, s ** 2 + c ** 2 - 1, s)
    return numerator == 0


@pytest.fixture(scope="module")
def aux():
    # (A+, A-, D+, D-) at angle 2 phi and radius sqrt(2) (2H)^(1/4) = sqrt(2) R
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oscillator, "np", types.SimpleNamespace(cos=sp.cos, sin=sp.sin, stack=np.stack))
        return _aux_at_radius(2 * PHI, sp.sqrt(2) * R)


def test_g_vanishes_on_shell(aux):
    # (dq, dp) = (p, -omega^2 q), the canonical equations; the Cramer step is _a_dots
    g = _g_values(W, P, -W * W * Q, *aux)
    assert [_vanishes(x) for x in g] == [True] * 4
    # and the certificate is not vacuous: off shell G1 does not vanish
    assert not _vanishes(_g_values(W, P + 1, -W * W * Q, *aux)[0])
    assert not _vanishes(_a_dots(W, P, -W * W * Q, aux[0], aux[1])[0])


def test_cramer_identities(aux):
    assert [_vanishes(x) for x in _cramer_residuals(W, Q, P, H, *aux)] == [True] * 3


def test_family_solves_the_lax_equation(aux):
    # along phi' = omega/2 at constant R: d mu/dt = (omega/2) d mu/d phi = [M, mu], whose
    # matrix is linear in M = (omega/2) J, so omega times its exact entries at omega = 1
    mu = sp.Matrix(_family_coeffs(*aux, C).tolist())
    rhs = structure_rhs_matrix(lax_matrices(OscState(1.0, 0.0, 0.0))[1])
    bracket = W * sp.Matrix(8, 8, [sp.Rational(x) for x in rhs.ravel().tolist()]) * mu
    residual = mu.diff(PHI) * W / 2 - bracket
    assert [_vanishes(x) for x in residual] == [True] * 8
    assert any(x != 0 for x in bracket)


def test_reference_takes_the_triple_angle_from_the_half_angle(monkeypatch):
    # (f) at omega = 2 and t = phi the half angle is phi, and with identity amplitudes
    # the reference's columns are its basis [cos, sin](phi), [cos, sin](3 phi)
    vec = types.SimpleNamespace(cos=np.vectorize(sp.cos), sin=np.vectorize(sp.sin),
                                atleast_2d=np.atleast_2d, stack=np.stack, matmul=np.matmul,
                                take=np.take)
    monkeypatch.setattr(evolution, "np", vec)
    batch = types.SimpleNamespace(omegas=np.array([2]), group=[0],
                                  amplitudes=np.eye(4, dtype=int)[None])
    b = evolution._Batch.analytic_mu(batch, PHI)[0, 0]
    basis = (sp.cos(PHI), sp.sin(PHI), sp.cos(3 * PHI), sp.sin(3 * PHI))
    assert [_vanishes(x - y) for x, y in zip(b, basis)] == [True] * 4


def test_g_vanishes_only_on_shell(aux):
    # (g) G1 = G2 = 0 is linear in (dq, dp) with the one solution (p, -omega^2 q)
    dq, dp = sp.symbols("dq dp")
    g = [sp.nsimplify(x, rational=True) for x in _g_values(W, dq, dp, *aux)[:2]]
    (solution,) = sp.solve(g, [dq, dp], dict=True)
    assert _vanishes(solution[dq] - P) and _vanishes(solution[dp] + W * W * Q)


def test_reference_amplitudes_rotate_the_family_by_the_half_angle(monkeypatch):
    # (h) at t = 2x/omega the half angle omega t/2 is x, and [cos, sin](x),
    # [cos, sin](3x) times the amplitudes K taken at angle 2 phi is the family at
    # angle 2 (phi + x): the reference rotates A+/- by x and D+/- by 3x at constant H
    x = sp.Symbol("x", real=True)
    vec = types.SimpleNamespace(cos=np.vectorize(sp.cos), sin=np.vectorize(sp.sin), stack=np.stack)
    monkeypatch.setattr(oscillator, "np", vec)
    batch = types.SimpleNamespace(theta0=np.array([2 * PHI]), h0=np.array([H]),
                                  cs=np.array(C).reshape(8, 1))
    k = evolution._Batch.amplitudes.func(batch)[0]
    assert k.shape == (4, 8)
    mu = np.array([sp.cos(x), sp.sin(x), sp.cos(3 * x), sp.sin(3 * x)]) @ k
    family = _family_coeffs(*oscillator._aux_values(2 * (PHI + x), H), C)
    assert [_vanishes(a - b, (PHI, x)) for a, b in zip(mu, family)] == [True] * 8
    # and the certificate is not vacuous: the family at 2 (phi - x) differs
    back = _family_coeffs(*oscillator._aux_values(2 * (PHI - x), H), C)
    assert not _vanishes(mu[0] - back[0], (PHI, x))
