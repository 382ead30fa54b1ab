"""Exact rational oracles for the float kernels.

At a dyadic dt and a dyadic omega every entry of the generator z = dt*B is a
double exactly, so stdlib `Fraction` arithmetic gives the exact RK4 increment
D = z + z^2/2 + z^3/6 + z^4/24 and its powers, against which the kernels'
rounding is measured in ulps.
"""

import math
from fractions import Fraction

import pytest

from operlax.evolution import _increment_matrix, _increment_powers, structure_rhs_matrix
from operlax.oscillator import OscState, lax_matrices

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

    d = _increment_matrix(omega, rhs, DT)
    assert [[float(x) for x in row] for row in exact_d] == d.tolist()

    # (I + D)^j - I of the stored D, in the increment form P + D + P D
    e, df = _increment_powers(d[None], POWERS)[0], _exact(d)
    power = [[Fraction(0)] * 10 for _ in range(10)]
    for j in range(1, POWERS + 1):
        pd = _matmul(power, df)
        power = [[p + x + y for p, x, y in zip(*rows)] for rows in zip(power, df, pd)]
        got = e[:, 10 * j:10 * (j + 1)].T  # E[j] is stored transposed
        worst = max(_ulps(float(got[a, b]), power[a][b]) for a in range(10) for b in range(10))
        assert worst <= POWER_ULPS, (j, worst)
