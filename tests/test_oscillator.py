import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlax import (
    DegenerateStateError,
    EnergyOverflowError,
    MuParams,
    OscState,
    aux_functions_principal,
    g_functions,
    hamiltonian,
    lax_matrices,
    mu_family,
    proof_identity_suite,
    trial_rng,
)
from operlax import oscillator
from operlax.calculus import TRIAL_BLOCK
from operlax.evolution import _PDE_RANGES, _THEOREM_RANGES
from operlax.oscillator import (
    _IDENTITY_RANGES,
    _OMEGAS,
    _a_dots,
    _aux_values,
    _cramer_residuals,
    _family_coeffs,
    _g_values,
    _gamma_from_g,
    _identity_rows,
    _libm,
    _polar,
    _principal_angle,
    _principal_aux,
    _trial_draws,
    gamma_structural_zeros,
    principal_theta,
)


def _polar_state(omega, h, theta):
    # the scalar polar map, the reference for _polar: the state of energy h at
    # principal angle theta (theta = 0 puts q = 0, p > 0)
    r = math.sqrt(2.0 * h)
    return OscState(omega, r * math.sin(theta) / omega, r * math.cos(theta))


def _identity_draws(seed, first, stop):
    # (omega, q, p, dq, dp) of identity-suite trials first..stop-1, one column each,
    # as proof_identity_suite maps its draws to states
    w, h, theta, dq, dp = _trial_draws(seed, range(first, stop), _IDENTITY_RANGES, False)
    return np.array([w, *_polar(w, h, theta), dq, dp])


def _draws(seed, n):
    """(omega, q, p, dq, dp, H) of n identity-suite trials, with the principal
    (A+, A-, D+, D-) over them: the arrays the suite runs."""
    w, q, p, dq, dp = _identity_draws(seed, 0, n)
    h = 0.5 * (p * p + w * w * q * q)
    return (w, q, p, dq, dp, h), _principal_aux(_libm(_principal_angle, w * q, p), h)


def test_hamiltonian_values():
    assert hamiltonian(OscState(1.0, 0.0, 0.0)) == 0.0
    assert hamiltonian(OscState(1.0, 0.0, 2.0)) == 2.0
    assert hamiltonian(OscState(2.0, 1.0, 0.0)) == 2.0


def test_state_validation():
    # a string, None, a bool or an int past the largest double is not a number
    for state in [(0.0, 1.0, 1.0), (1.0, math.nan, 0.0), ("x", 0.0, 1.0), (1.0, 2 ** 1100, 1.0),
                  (True, 0.0, 1.0), (1.0, 0.0, None)]:
        with pytest.raises(ValueError):
            OscState(*state)


def test_state_rejects_energy_overflow():
    # finite q and p whose energy overflows a double, which would give H = inf
    with pytest.raises(EnergyOverflowError):
        OscState(1.0, 0.0, 1e160)
    with pytest.raises(EnergyOverflowError):
        OscState(2.0, 1e155, 0.0)
    assert math.isfinite(hamiltonian(OscState(1.0, 0.0, 1e150)))


def test_principal_theta_signed_zero():
    # q = -0.0 on the negative momentum axis lies on the cut at +pi, with the
    # same A- as q = +0.0
    assert principal_theta(OscState(1.0, -0.0, -1.0)) == math.pi
    assert principal_theta(OscState(1.0, -5e-324, -1.0)) == math.pi
    assert math.copysign(1.0, principal_theta(OscState(1.0, -0.0, 1.0))) == 1.0
    neg = aux_functions_principal(OscState(1.0, -0.0, -1.0))
    pos = aux_functions_principal(OscState(1.0, 0.0, -1.0))
    assert neg == pos
    npt.assert_allclose(neg[1], math.sqrt(2.0), rtol=1e-15)


@settings(derandomize=True, database=None)
@given(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=-1e150, max_value=1e150),
    st.floats(min_value=-1e150, max_value=1e150),
)
@example(1.0, -0.0, -1.0)
@example(1.0, -0.0, -0.0)
@example(0.5, -5e-324, -1.0)
@example(0.5, -2.2250738585e-313, 45035996274.0)
def test_principal_theta_range(omega, q, p):
    theta = principal_theta(OscState(omega, q, p))
    assert -math.pi < theta <= math.pi
    assert math.copysign(1.0, theta) == 1.0 or theta < 0.0  # never -0.0


def test_lax_matrices():
    L, M = lax_matrices(OscState(1.0, 1.0, 0.0))
    npt.assert_array_equal(L.tensor, [[0.0, 1.0], [1.0, 0.0]])
    npt.assert_array_equal(M.tensor, [[0.0, -0.5], [0.5, 0.0]])

    L0, M0 = lax_matrices(OscState(1.0, 0.0, 0.0))
    npt.assert_array_equal(L0.tensor, np.zeros((2, 2)))
    npt.assert_array_equal(M0.tensor, M.tensor)

    (w, q, p, *_), _ = _draws(20, 20)
    for state in zip(w.tolist(), q.tolist(), p.tolist()):
        t = lax_matrices(OscState(*state))[0].tensor
        assert t[0, 0] + t[1, 1] == 0.0
        assert t[0, 1] == t[1, 0]


def test_aux_principal_momentum_axis():
    s = OscState(1.0, 0.0, 2.0)
    assert principal_theta(s) == 0.0
    npt.assert_allclose(aux_functions_principal(s), [2.0, 0.0, 4.0, 0.0], atol=1e-12)


def test_aux_principal_coordinate_axis():
    s = OscState(1.0, 1.0, 0.0)
    npt.assert_allclose(principal_theta(s), math.pi / 2, atol=1e-15)
    npt.assert_allclose(aux_functions_principal(s), [1.0, 1.0, -1.0, 1.0], atol=1e-12)


def test_aux_zero_energy_state():
    for q, p in ((0.0, 0.0), (-0.0, -0.0), (0.0, -0.0), (-0.0, 0.0)):
        s = OscState(1.0, q, p)
        assert principal_theta(s) == 0.0
        # +0.0 each, whatever the signs of the zeros
        assert _bytes(aux_functions_principal(s)) == _bytes([0.0] * 4)


def _bytes(values):
    return np.array(values, dtype=float).tobytes()


@settings(derandomize=True, database=None, max_examples=300)
@given(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(min_value=-1e150, max_value=1e150),
    st.floats(min_value=-1e150, max_value=1e150),
)
@example(1.0, -0.0, -1.0)
@example(1.0, -0.0, -0.0)
@example(0.5, -5e-324, -1.0)
@example(2.0, 1e-300, -0.0)
def test_pointwise_api_is_one_row_of_array_forms(omega, q, p):
    s = OscState(omega, q, p)
    aux = aux_functions_principal(s)
    assert type(aux) is tuple and all(type(v) is float for v in aux)
    # the one-state form: libm's angle, then the half-angle functions on floats
    assert _bytes(aux) == _bytes(_aux_values(principal_theta(s), hamiltonian(s)))
    c = np.linspace(-1.0, 1.0, 8)
    assert mu_family(s, MuParams(c)).coeffs.tobytes() == _family_coeffs(*aux, c).tobytes()
    if hamiltonian(s) > 0.0:
        g = g_functions(s, 0.25, -1.5)
        assert _bytes(g) == _bytes(_g_values(omega, 0.25, -1.5, *aux))


def test_principal_aux_rows_equal_one_state_form():
    (w, q, p, *_, h), aux = _draws(5, 5000)
    rows = np.column_stack(aux)
    for k, state in enumerate(zip(w.tolist(), q.tolist(), p.tolist())):
        s = OscState(*state)
        assert rows[k].tobytes() == _bytes(_aux_values(principal_theta(s), hamiltonian(s)))


def test_aux_defining_relations_random():
    (w, q, p, *_, h), (ap, am, _, _) = _draws(21, 300)
    sq2h = np.sqrt(2.0 * h)
    scale = 1e-12 * (1.0 + sq2h)
    assert np.all(np.abs(ap ** 2 + am ** 2 - 2.0 * sq2h) <= scale)
    assert np.all(np.abs(ap ** 2 - am ** 2 - 2.0 * p) <= scale)
    assert np.all(np.abs(ap * am - w * q) <= scale)
    assert np.all(ap >= 0.0)


def test_aux_principal_is_the_complex_half_power():
    # (A+, A-) = sqrt(2) sqrt(z) and (D+, D-) = sqrt(2) z^(3/2), z = p + i omega q
    (w, q, p, *_, h), (ap, am, dp, dm) = _draws(22, 300)
    z = p + 1j * w * q
    scale = 1e-12 * (1.0 + h ** 1.5)
    assert np.all(np.abs(ap + 1j * am - math.sqrt(2.0) * np.sqrt(z)) <= scale)
    assert np.all(np.abs(dp + 1j * dm - math.sqrt(2.0) * z ** 1.5) <= scale)


def test_aux_continuous_matches_principal_on_first_sheet():
    s = OscState(1.0, 0.0, 2.0)
    npt.assert_allclose(_aux_values(0.0, hamiltonian(s))[:2], [2.0, 0.0], atol=1e-12)


def test_aux_continuous_second_sheet_flips_sign():
    s = OscState(1.0, 0.0, 2.0)
    ap, am, dp, dm = _aux_values(2.0 * math.pi, hamiltonian(s))
    npt.assert_allclose([ap, am], [-2.0, 0.0], atol=1e-12)
    npt.assert_allclose([dp, dm], [-4.0, 0.0], atol=1e-12)
    # defining relations still hold on the second sheet
    npt.assert_allclose(ap ** 2 - am ** 2, 2.0 * s.p, atol=1e-12)

    aux = _aux_values(math.pi / 2, hamiltonian(OscState(1.0, 1.0, 0.0)))
    npt.assert_allclose(aux[:2], [1.0, 1.0], atol=1e-12)


def test_aux_continuous_sheet_flip_everywhere():
    # consecutive sheets flip the sign of A+/- and D+/-, on floats and on arrays
    (w, q, p, *_, h), _ = _draws(23, 100)
    theta = np.array([math.atan2(y, x) for y, x in zip((w * q).tolist(), p.tolist())])
    for k in range(len(h)):
        a1 = _aux_values(float(theta[k]), float(h[k]))
        a2 = _aux_values(float(theta[k]) + 2.0 * math.pi, float(h[k]))
        scale = 1e-12 * (1.0 + abs(a1[0]) + abs(a1[2])) ** 3
        assert max(abs(x + y) for x, y in zip(a1, a2)) <= scale
    a1, a2 = np.array(_aux_values(theta, h)), np.array(_aux_values(theta + 2.0 * math.pi, h))
    assert np.all(np.abs(a1 + a2) <= 1e-12 * (1.0 + np.abs(a1[0]) + np.abs(a1[2])) ** 3)


def test_g_functions_frozen_offshell():
    g = g_functions(OscState(1.0, 1.0, 0.0), 0.0, 0.0)
    npt.assert_allclose(g, [0.5, -0.5, 1.5, 1.5], atol=1e-12)


def test_g_functions_onshell_vanish():
    # on shell: (dq, dp) = (p, -omega^2 q)
    for s in (OscState(1.0, 1.0, 0.0), OscState(2.0, 1.0, 0.0)):
        g = g_functions(s, s.p, -s.omega * s.omega * s.q)
        npt.assert_allclose(g, np.zeros(4), atol=1e-12 * (1.0 + hamiltonian(s)))

    (w, q, p, *_, h), aux = _draws(24, 500)
    g = np.array(_g_values(w, p, -w * w * q, *aux))
    assert np.all(np.max(np.abs(g), axis=0) <= 1e-12 * (1.0 + h))


def test_g_functions_degenerate_state():
    with pytest.raises(DegenerateStateError):
        g_functions(OscState(1.0, 0.0, 0.0), 1.0, 1.0)


def test_g_functions_detect_offshell_flows():
    # every flow at distance 0.1 to 2 from the on-shell one
    (w, q, p, *_), aux = _draws(25, 300)
    rng = trial_rng(2, 4)
    angle, radius = rng.uniform(0.0, 2.0 * math.pi, 300), rng.uniform(0.1, 2.0, 300)
    g = _g_values(w, p + radius * np.cos(angle), -w * w * q + radius * np.sin(angle), *aux)
    assert np.all(np.maximum(np.abs(g[0]), np.abs(g[1])) >= 1e-3)


def test_mu_family_zero_params():
    s = OscState(1.0, 0.3, 0.7)
    npt.assert_array_equal(mu_family(s, MuParams.zeros()).coeffs, np.zeros(8))


def test_mu_family_c5_frozen():
    mu = mu_family(OscState(1.0, 0.0, 2.0), MuParams((0, 0, 0, 0, 1, 0, 0, 0)))
    expected = np.zeros(8)
    expected[2] = -2.0  # mu_121 = -A+
    expected[7] = -2.0  # mu_222 = -A+
    npt.assert_allclose(mu.coeffs, expected, atol=1e-12)


def test_mu_family_c7_frozen():
    mu = mu_family(OscState(1.0, 1.0, 0.0), MuParams((0, 0, 0, 0, 0, 0, 1, 0)))
    expected = np.array([1.0, 1.0, 1.0, -1.0, 1.0, -1.0, -1.0, -1.0])
    npt.assert_allclose(mu.coeffs, expected, atol=1e-12)


def test_mu_family_linear_in_params():
    (*_, h), aux = _draws(26, 50)
    rng = trial_rng(2, 5)
    c1, c2 = rng.uniform(-1, 1, (2, 8, 50))
    a, b = rng.uniform(-2, 2, (2, 50, 1))
    lhs = _family_coeffs(*aux, a.T * c1 + b.T * c2)
    rhs = a * _family_coeffs(*aux, c1) + b * _family_coeffs(*aux, c2)
    assert np.all(np.max(np.abs(lhs - rhs), axis=1) <= 1e-12 * (1.0 + h ** 1.5))


def test_mu_params_validation():
    for c in [(1.0,) * 7, (math.inf,) + (0.0,) * 7, (True,) * 8, (0.0,) * 7 + (2 ** 1100,),
              "12345678", (0.0,) * 7 + ("1",)]:
        with pytest.raises(ValueError):
            MuParams(c)


def _gamma(s, dq, dp):
    # the 8x8 constraint matrix at a state for candidate derivatives (dq, dp)
    return _gamma_from_g(g_functions(s, dq, dp))


def test_gamma_onshell_zero():
    (w, q, p, *_, h), aux = _draws(27, 200)
    gm = _gamma_from_g(_g_values(w, p, -w * w * q, *aux))
    assert gm.shape == (200, 8, 8)
    assert np.all(np.max(np.abs(gm), axis=(1, 2)) <= 1e-12 * (1.0 + h))


def test_gamma_frozen_first_row():
    gm = _gamma(OscState(1.0, 1.0, 0.0), 0.0, 0.0)
    npt.assert_allclose(gm[0], [0.0, 0.5, -0.5, 0.0, 0.0, -0.5, 0.5, 0.0], atol=1e-12)


def test_gamma_structural_sparsity():
    mask = gamma_structural_zeros()
    assert mask.sum() == 24  # four per rotation row, none in the cubic rows
    # at the suite's off-shell flows
    (w, q, p, dq, dp, _), aux = _draws(28, 100)
    assert np.all(_gamma_from_g(_g_values(w, dq, dp, *aux))[:, mask] == 0.0)


# The paper's constraint matrix, one token per entry: p/m are the half-frequency
# G values, P/M the 3/2-frequency ones, and the zeros hold for any state.  The
# library reads the matrix off the family instead; this copy checks it.
_GAMMA_PATTERN = [
    "0 +p -p 0 0 +m -m 0",
    "0 +m -m 0 0 -p +p 0",
    "0 0 -p -m +p +m 0 0",
    "0 0 -m +p +m -p 0 0",
    "+m 0 -p 0 0 +m 0 -p",
    "+p 0 +m 0 0 +p 0 +m",
    "+M -P -P -M -P -M -M +P",
    "+P +M +M -P +M -P -P -M",
]


def test_gamma_arrays_follow_the_pattern():
    # entry by entry from the paper's tokens, against the matrix read off the family
    g = (0.3, -1.7, 2.9, -0.05)
    lookup = dict(zip("pmPM", g))
    expected = [[0.0 if tok == "0" else float(tok[0] + "1") * lookup[tok[1]] for tok in row.split()]
                for row in _GAMMA_PATTERN]
    npt.assert_array_equal(_gamma_from_g(g), expected)
    npt.assert_array_equal(gamma_structural_zeros(), np.array(expected) == 0.0)
    # with a leading trial axis, one matrix per trial
    stacked = _gamma_from_g(tuple(np.array([x, -x, 0.0]) for x in g))
    npt.assert_array_equal(stacked, [expected, -np.array(expected), np.zeros((8, 8))])


def test_gamma_degenerate_state():
    with pytest.raises(DegenerateStateError):
        _gamma(OscState(1.0, 0.0, 0.0), 0.0, 0.0)


def test_proof_identities_frozen():
    # (Delta - 2H, (D- p - D+ w q) - 2 A- H, (D+ p + D- w q) - 2 A+ H), Delta = p^2 + (w q)^2
    for q, p, atol in ((1.0, 0.0, 1e-12), (0.0, 2.0, 1e-12), (0.0, 0.0, 1e-15)):
        s = OscState(1.0, q, p)
        r = _cramer_residuals(1.0, q, p, hamiltonian(s), *aux_functions_principal(s))
        npt.assert_allclose(r, (0, 0, 0), atol=atol)


def test_proof_identities_random():
    (w, q, p, *_, h), aux = _draws(29, 500)
    r = np.array(_cramer_residuals(w, q, p, h, *aux))
    assert np.all(np.max(np.abs(r), axis=0) <= 1e-12 * (1.0 + h ** 1.5))


def test_proof_identity_suite():
    reports = proof_identity_suite(trials=200, seed=11, tol=1e-12)
    assert [r.law_name for r in reports] == [
        "aux-defining-relations",
        "aux-derivative-row1",
        "cramer-identities",
        "g-onshell",
        "gamma-onshell",
        "gamma-sparsity",
    ]
    assert all(r.passed for r in reports)
    assert all(type(r.max_abs_residual) is float and type(r.passed) is bool for r in reports)


def _identity_reference(seed, k):
    """One trial of the identity suite through the one-state API, as the suite
    computed it trial by trial before it worked on blocks of trials."""
    rng = trial_rng(seed, k)
    s = _polar_state(*(float(rng.uniform(lo, hi)) for lo, hi in _IDENTITY_RANGES[:3]))
    h = hamiltonian(s)
    aux = aux_functions_principal(s)
    ap, am = aux[:2]
    sq2h = math.sqrt(2.0 * h)
    rel = max(
        abs(ap ** 2 + am ** 2 - 2.0 * sq2h),
        abs(ap ** 2 - am ** 2 - 2.0 * s.p),
        abs(ap * am - s.omega * s.q),
    )
    r_delta, r_minus, r_plus = _cramer_residuals(s.omega, s.q, s.p, h, *aux)
    g_on = g_functions(s, s.p, -s.omega * s.omega * s.q)
    dq, dp = rng.uniform(-2.0, 2.0, size=2)
    da_p, da_m = _a_dots(s.omega, dq, dp, ap, am)
    row1 = (ap * da_p + am * da_m) - (s.p * dp + s.omega ** 2 * s.q * dq) / sq2h
    gamma_off = _gamma_from_g(g_functions(s, dq, dp))
    return (
        rel / (1.0 + sq2h),
        abs(row1) / (1.0 + h),
        max(map(abs, (r_delta, r_minus, r_plus))) / (1.0 + h ** 1.5),
        max(map(abs, g_on)) / (1.0 + h),
        float(np.max(np.abs(_gamma_from_g(g_on)))) / (1.0 + h),
        float(np.max(np.abs(gamma_off[gamma_structural_zeros()]))),
    )


def test_identity_rows_match_scalar_reference():
    rows = _identity_rows(*_identity_draws(104, 0, 300))
    expected = np.array([_identity_reference(104, k) for k in range(300)])
    assert rows.shape == (300, 6)
    assert np.max(np.abs(rows - expected)) <= 1e-15


# Each use of _trial_draws: its table and omega pick, the draws one trial's stream
# gave it when each suite drew trial by trial, and the (omega, energy, angle) that
# the suite puts through the polar map (None where the draws are not a state).
_SAMPLER_USES = {
    "theorem": (_THEOREM_RANGES, True,
                lambda rng: [rng.choice(_OMEGAS), rng.uniform(0.1, 10.0),
                             rng.uniform(-math.pi, math.pi), *rng.uniform(-1.0, 1.0, size=8)],
                lambda d: d[:3]),
    "pde-state": (_PDE_RANGES, True,
                  lambda rng: [rng.choice(_OMEGAS), rng.uniform(math.log(0.1), math.log(10.0)),
                               rng.uniform(-0.95 * math.pi, 0.95 * math.pi)],
                  lambda d: (d[0], np.exp(d[1]), d[2])),
    "pde-probe": (_PDE_RANGES[:1], True,
                  lambda rng: [rng.choice(_OMEGAS), rng.uniform(math.log(0.1), math.log(10.0))],
                  lambda d: (d[0], np.exp(d[1]), 0.0)),
    "parameter-pool": (((-1.0, 1.0),) * 8, False,
                       lambda rng: [*rng.uniform(-1.0, 1.0, size=8)], None),
    "identity": (_IDENTITY_RANGES, False,
                 lambda rng: [rng.uniform(0.5, 2.0), rng.uniform(0.1, 10.0),
                              rng.uniform(-math.pi, math.pi), *rng.uniform(-2.0, 2.0, size=2)],
                 lambda d: d[:3]),
}


@pytest.mark.parametrize("use", _SAMPLER_USES)
@pytest.mark.parametrize("seed, first, count", [
    (104, 40, 300),           # a first trial past 0
    (2 ** 32 + 5, 250, 12),   # a seed of two 32-bit words
    (2 ** 64 + 1, 3, 12),     # a seed past 64 bits: SeedSequence's own words
    (7, 9, 0),                # no trials
])
def test_trial_draws_equal_each_trial_stream(use, seed, first, count):
    ranges, pick_omega, reference, state = _SAMPLER_USES[use]
    ks = range(first, first + count)
    draws = _trial_draws(seed, ks, ranges, pick_omega)
    expected = [[float(x) for x in reference(trial_rng(seed, k))] for k in ks]
    assert draws.shape == (len(ranges) + pick_omega, count)
    assert draws.T.tolist() == expected
    if state is not None:
        # the polar map of the array draws is the scalar one, state by state
        q, p = _polar(*state(draws))
        assert [q.tolist(), p.tolist()] == [[_polar_state(*state(row)).q for row in expected],
                                            [_polar_state(*state(row)).p for row in expected]]


def test_trial_draws_follow_the_stream_on_a_lemire_rejection(monkeypatch):
    # a low word of 0 makes Lemire's draw take another 32-bit word, which the raw words'
    # reading does not: every trial is then drawn from its stream
    raws = oscillator._trial_raws

    def rejecting(seed, ks, count):
        out = raws(seed, ks, count)
        out[1, 0] &= np.uint64(0xFFFFFFFF00000000)
        return out

    ranges, pick_omega, reference, _ = _SAMPLER_USES["theorem"]
    expected = [[float(x) for x in reference(trial_rng(3, k))] for k in range(4)]
    assert expected[1][0] != _OMEGAS[0]  # which the zeroed word would pick
    monkeypatch.setattr(oscillator, "_trial_raws", rejecting)
    assert _trial_draws(3, range(4), ranges, pick_omega).T.tolist() == expected


def test_identity_row_does_not_depend_on_its_block():
    draws = _identity_draws(7, 0, TRIAL_BLOCK)
    block = _identity_rows(*draws)
    for k in (0, 1, 100, TRIAL_BLOCK - 1):
        assert _identity_rows(*draws[:, k:k + 1]).tolist() == block[k:k + 1].tolist()


def _identity_suite_peak(trials):
    tracemalloc.start()
    try:
        proof_identity_suite(trials, 3, 1e-12)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_identity_suite_memory_is_flat_in_trials():
    assert _identity_suite_peak(20_000) <= _identity_suite_peak(2_000) + 2 ** 20
