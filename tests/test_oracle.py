"""Exact oracles for the float kernels.

At a dyadic dt and a dyadic omega every entry of the generator z = dt*B is a
double exactly, so stdlib `Fraction` arithmetic gives the exact RK4 increment
D = z + z^2/2 + z^3/6 + z^4/24 and its powers, against which the kernels'
rounding is measured in ulps.  On operations with small integer coefficients
every composite is an integer far below 2**53, so the calculus kernels must
equal an index formula in Python ints exactly, and every law's residual is 0.
The family and its constraint matrix on small integers are exact in the same
way, so their identities hold bit for bit.

The generator is constant and block-diagonal: (q, p) rotates at omega and mu is
[cos, sin](omega t/2), [cos, sin](3 omega t/2) @ K.  One RK4 step multiplies each
e^(i nu t) by R(i nu dt), R(z) = 1 + z + z^2/2 + z^3/6 + z^4/24, so the integration
error is known in closed form before the run: a log-amplitude and a phase defect
per step, taken in mpmath and carried by expm1 and half-angle sines.
"""

import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache

import mpmath
import numpy as np
import pytest

from operlax import (IntegratorConfig, MuParams, gerstenhaber_bracket, make_operation,
                     partial_compose, rk4_order_check, theorem_suite, total_compose)
from operlax import calculus, evolution
from operlax.evolution import (_THEOREM_RANGES, _increment_matrix, _increment_powers,
                               structure_rhs_matrix)
from operlax.oscillator import (OscState, _family_coeffs, _gamma_from_g, _polar, _trial_draws,
                                lax_matrices)

DT = 2.0 ** -10
POWERS = 16
# measured at most 1.92 ulp at each omega; a stored I + D would be ~7e5 ulp off
POWER_ULPS = 4


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _exact(matrix):
    return [[Fraction(float(x)) for x in row] for row in matrix]


def _ulps(got: float, exact: Fraction) -> float:
    """|got - exact| in units of the last place of the double nearest exact (0 at exact 0)."""
    if exact == 0:
        return 0.0 if got == 0.0 else math.inf
    return float(abs(Fraction(got) - exact) / Fraction(math.ulp(float(exact))))


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_increment_matrix_is_the_exact_d_rounded_and_its_powers_are_near_it(omega):
    rhs = structure_rhs_matrix(lax_matrices(OscState(omega, 0.0, 0.0))[1])
    z = [[Fraction(0)] * 10 for _ in range(10)]
    z[0][1], z[1][0] = Fraction(DT), -Fraction(DT) * Fraction(omega) ** 2
    for i, row in enumerate(_exact(rhs)):
        z[2 + i][2:] = [Fraction(DT) * x for x in row]
    z2 = _matmul(z, z)
    z3, z4 = _matmul(z2, z), _matmul(z2, z2)
    exact_d = [[z[i][j] + z2[i][j] / 2 + z3[i][j] / 6 + z4[i][j] / 24 for j in range(10)]
               for i in range(10)]

    d = _increment_matrix(omega, DT)
    assert [[float(x) for x in row] for row in exact_d] == d.tolist()

    # (I + D)^j - I of the stored D, in the increment form P + D + P D
    e, df = _increment_powers(d, POWERS), _exact(d)
    power = [[Fraction(0)] * 10 for _ in range(10)]
    for j in range(1, POWERS + 1):
        pd = _matmul(power, df)
        power = [[p + x + y for p, x, y in zip(*rows)] for rows in zip(power, df, pd)]
        got = e[:, 10 * j:10 * (j + 1)].T  # E[j] is stored transposed
        worst = max(_ulps(float(got[a, b]), power[a][b]) for a in range(10) for b in range(10))
        assert worst <= POWER_ULPS, (j, worst)


def _exact_rk4_increment(z):
    z2 = _matmul(z, z)
    z3, z4 = _matmul(z2, z), _matmul(z2, z2)
    return [[z[i][j] + z2[i][j] / 2 + z3[i][j] / 6 + z4[i][j] / 24 for j in range(len(z))]
            for i in range(len(z))]


@pytest.mark.parametrize("omega", [0.5, 1.0, 2.0])
def test_order_check_steps_with_the_exact_2x2_d_rounded(omega, monkeypatch):
    # the (q, p) block that rk4_order_check steps, at dt and dt/2
    seen, kernel = [], evolution._rk4_chunks

    def recording(y0, tables, n_steps, group):
        seen.append([x[:, 2:4].T.tolist() for x in tables])  # E[1] = D, stored transposed
        return kernel(y0, tables, n_steps, group)

    monkeypatch.setattr(evolution, "_rk4_chunks", recording)
    rk4_order_check(IntegratorConfig(dt=DT, t_end=0.5, omega=omega, q0=0.0, p0=1.0,
                                     params=MuParams.zeros()))
    exact = []
    for dt in (Fraction(DT), Fraction(DT) / 2):
        d = _exact_rk4_increment([[Fraction(0), dt], [-dt * Fraction(omega) ** 2, Fraction(0)]])
        exact.append([[[float(x) for x in row] for row in d]])
    assert seen == exact


@lru_cache
def _rk4_defects(nu: float, dt: float) -> tuple:
    # (log|R|, arg R - x) at x = nu dt, at 50 digits: a double R**n would round to
    # more than the truncation (~45x at omega 0.5, dt 1e-3)
    with mpmath.workdps(50):
        x = mpmath.mpf(nu) * mpmath.mpf(dt)
        re, im = 1 - x ** 2 / 2 + x ** 4 / 24, x - x ** 3 / 6
        return float(mpmath.log(re * re + im * im) / 2), float(mpmath.atan2(im, re) - x)


def _rk4_defect(nu: float, dt: float, n: np.ndarray) -> np.ndarray:
    """R(i nu dt)^n - e^(i nu n dt) for step counts n, as e^(i nu n dt) times
    e^(n log|R| + i n (arg R - nu dt)) - 1, that from expm1 and a half-angle sine."""
    ell, delta = _rk4_defects(nu, dt)
    phase = n * delta
    g = np.expm1(n * ell) * np.exp(1j * phase) + 2j * np.sin(phase / 2) * np.exp(0.5j * phase)
    return np.exp(1j * nu * n * dt) * g


@pytest.mark.parametrize("seed", [0, 7, 101])
def test_theorem_suite_error_is_the_rk4_closed_form(seed):
    # per trial, numeric mu minus the reference is Re and Im of each nu's defect times
    # K's cos and sin rows, to within the run's rounding sqrt(n) eps |K| (|K| the
    # largest column sum of |K|); measured at most 0.28 of it
    trials, dt, t_end = 20, 1e-3, 20.0
    w, h, theta, *cs = _trial_draws(seed, range(trials), _THEOREM_RANGES, True)
    batch = evolution._Batch(dt, t_end, w, *_polar(w, h, theta), np.transpose(cs))
    bound = math.sqrt(batch.n_steps) * np.finfo(float).eps * np.abs(batch.amplitudes).sum(
        axis=1).max(axis=1)
    residue, predicted = np.zeros(trials), np.zeros(trials)
    for t, ys in batch.records():
        n = np.rint(t[:, 0] / dt)
        dev = ys[..., 2:] - batch.analytic_mu(t)
        basis = [np.stack([f(_rk4_defect(nu, dt, n)) for nu in (x / 2, 1.5 * x)
                           for f in (np.real, np.imag)], -1) for x in batch.omegas.tolist()]
        closed = np.matmul(np.array(basis)[batch.group], batch.amplitudes)
        residue = np.maximum(residue, np.abs(dev - closed).max(axis=(1, 2)))
        predicted = np.maximum(predicted, np.abs(closed).max(axis=(1, 2)))
    assert (residue <= bound).all()
    # so the suite's trajectory-mu is the predicted truncation to within the bound: where
    # the prediction exceeds 100 bounds their ratio lies within 1 +- 1%
    reports = theorem_suite(trials, seed, 1e-6, dt=dt, t_end=t_end)
    mu = np.array([r.max_abs_residual for r in reports if r.law_name.startswith("trajectory-mu")])
    assert (np.abs(mu - predicted) <= bound).all()
    assert (predicted > 100 * bound).any()


@pytest.mark.parametrize("omega, dt", [(0.5, 0.05), (0.5, 0.2), (1.0, 0.05), (1.0, 0.1),
                                       (2.0, 0.02), (2.0, 0.05)])
def test_order_check_is_the_closed_form_ratio(omega, dt):
    # where truncation rules, omega dt >= 0.025 (measured within 5.3e-7).  Below it the
    # fine run's rounding shows: at dt 2e-2 the ratio is 1.7e-6 off at omega 1 and 5.3e-5
    # at omega 0.5, and at dt 2e-3 up to 6.7e-2
    config = IntegratorConfig(dt, 10.0, omega, 0.3, 0.7, MuParams.zeros())

    def worst(step: float) -> float:
        # (q, p) as z = p + i omega q, which RK4 takes to z0 R(i omega step)^n
        n = np.arange(round(config.t_end / step) + 1)
        z = (config.p0 + 1j * omega * config.q0) * _rk4_defect(omega, step, n)
        return max(np.abs(z.real).max(), np.abs(z.imag).max() / omega)

    assert rk4_order_check(config) == pytest.approx(worst(dt) / worst(dt / 2), rel=1e-6)


def _flat(d: int, index) -> int:
    pos = 0
    for x in index:
        pos = pos * d + x
    return pos


def _oracle_compose(d, f, m, g, n, i):
    """g into slot i of f, index by index in ints:
    (f o_i g)^a_{j1..ji k1..kn j(i+2)..jm} = (-1)^(i(n-1)) sum_b f^a_{j1..ji b ..} g^b_{k1..kn}."""
    sign = -1 if i * (n - 1) % 2 else 1
    out = []
    for a, *ins in itertools.product(range(d), repeat=m + n):
        before, inner, after = ins[:i], ins[i:i + n], ins[i + n:]
        out.append(sign * sum(f[_flat(d, (a, *before, b, *after))] * g[_flat(d, (b, *inner))]
                              for b in range(d)))
    return out


def _oracle_bracket(d, f, m, g, n):
    fg = [sum(col) for col in zip(*(_oracle_compose(d, f, m, g, n, i) for i in range(m)))]
    gf = [sum(col) for col in zip(*(_oracle_compose(d, g, n, f, m, i) for i in range(n)))]
    sign = -1 if (m - 1) * (n - 1) % 2 else 1
    return fg, [x - sign * y for x, y in zip(fg, gf)]


def _integer_coeffs(rng, d, arity):
    return [rng.randint(-3, 3) for _ in range(d ** (arity + 1))]


SIZES = list(itertools.product(range(1, 4), repeat=3))  # (dim, arity of f, arity of g)


@pytest.mark.parametrize("d, m, n", SIZES)
def test_calculus_kernels_equal_the_integer_index_formula(d, m, n):
    rng = random.Random(f"{d}{m}{n}")
    f, g = _integer_coeffs(rng, d, m), _integer_coeffs(rng, d, n)
    fo, go = make_operation(d, m, f), make_operation(d, n, g)
    # exact equality of every coefficient; an integer has no sign of zero to compare
    for i in range(m):
        assert partial_compose(fo, go, i).coeffs.tolist() == _oracle_compose(d, f, m, g, n, i)
    total, bracket = _oracle_bracket(d, f, m, g, n)
    assert total_compose(fo, go).coeffs.tolist() == total
    assert gerstenhaber_bracket(fo, go).coeffs.tolist() == bracket


def test_operad_laws_vanish_exactly_on_integer_operations():
    # the suite's two law kernels, stacked by signature as the suite runs them
    rng = random.Random(0)
    triples = []
    for _ in range(60):
        d = rng.randint(1, 3)
        triples.append((d, *[(np.array(_integer_coeffs(rng, d, a), float), a)
                             for a in (rng.randint(1, 3) for _ in range(3))]))
    assert np.all(calculus._by_signature(calculus._triple_laws, 3, triples) == 0.0)
    units = [(d, op) for d, *ops in triples for op in ops]
    assert np.all(calculus._by_signature(calculus._unit_laws, 1, units) == 0.0)


# Each residual of the three triple laws is a polynomial of degree <= 3 in the
# coefficients, and one that is not identically zero vanishes at a uniform point
# of [-256, 256]^N with probability <= 3/513 (Schwartz-Zippel).  Five points per
# signature leave a wrong law unseen with probability <= 81 * 3 * (3/513)**5,
# about 2e-9.  The composites stay below 2**53, so doubles hold them exactly.
SIGNATURES = list(itertools.product(range(1, 4), repeat=4))  # (dim, arities of h, f, g)


def test_triple_laws_vanish_exactly_on_every_signature():
    rng = np.random.default_rng(2008)
    for d, l, m, n in SIGNATURES:
        h, f, g = (rng.integers(-256, 257, size=(5, d ** (a + 1))).astype(float)
                   for a in (l, m, n))
        laws = calculus._triple_laws(d, h, l, f, m, g, n)
        residuals = [calculus._residual(diffs).tolist() for diffs in laws]
        assert residuals == [[0.0] * 5] * 3, (d, l, m, n)


def _integer_draws(seed, n, rows):
    # rows x n small integers as doubles, each row one argument over n trials
    return np.random.default_rng(seed).integers(-9, 10, size=(rows, n)).astype(float)


def test_family_solves_the_lax_equation_on_shell_exactly():
    # at omega = 2 the on-shell flow is dA+/dt = -A-, dA-/dt = A+, dD+/dt = -3 D-,
    # dD-/dt = 3 D+, so [M, mu] of the family is the family at those derivatives
    rhs = structure_rhs_matrix(lax_matrices(OscState(2.0, 0.0, 0.0))[1])
    assert rhs.tolist() == structure_rhs_matrix(make_operation(2, 1, [0, -1, 1, 0])).tolist()
    ap, am, dp, dm, *c = _integer_draws(1, 200, 12)
    mu = _family_coeffs(ap, am, dp, dm, c)
    assert (mu @ rhs.T).tolist() == _family_coeffs(-am, ap, -3.0 * dm, 3.0 * dp, c).tolist()


def test_gamma_transposed_times_c_is_the_family_exactly():
    # rows of the constraint matrix are C1..C8, columns the structure constants
    g, c = tuple(_integer_draws(2, 500, 4)), _integer_draws(3, 500, 8)
    lhs = np.einsum("kij,ik->kj", _gamma_from_g(g), c)
    assert lhs.tolist() == _family_coeffs(*g, c).tolist()
