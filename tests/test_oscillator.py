import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlax import (
    AuxFunctions,
    DegenerateStateError,
    EnergyOverflowError,
    MuParams,
    OscState,
    aux_functions_principal,
    g_functions,
    hamilton_rhs,
    hamiltonian,
    lax_matrices,
    mu_family,
    proof_identity_residuals,
    proof_identity_suite,
    random_state,
    trial_rng,
)
from operlax.calculus import TRIAL_BLOCK
from operlax.oscillator import (
    _GAMMA_PATTERN,
    _a_dots,
    _aux_values,
    _gamma_from_g,
    _identity_draws,
    _identity_rows,
    gamma_structural_zeros,
    principal_theta,
)


def test_hamiltonian_values():
    assert hamiltonian(OscState(1.0, 0.0, 0.0)) == 0.0
    assert hamiltonian(OscState(1.0, 0.0, 2.0)) == 2.0
    assert hamiltonian(OscState(2.0, 1.0, 0.0)) == 2.0


def test_hamilton_rhs_values():
    assert hamilton_rhs(OscState(1.0, 1.0, 0.0)) == (0.0, -1.0)
    assert hamilton_rhs(OscState(1.0, 0.0, 0.0)) == (0.0, 0.0)
    assert hamilton_rhs(OscState(2.0, 1.0, 3.0)) == (3.0, -4.0)


def test_state_validation():
    with pytest.raises(ValueError):
        OscState(0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        OscState(1.0, math.nan, 0.0)


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
    npt.assert_allclose(neg.a_minus, math.sqrt(2.0), rtol=1e-15)


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

    rng = trial_rng(2, 0)
    for _ in range(20):
        s = random_state(rng)
        t = lax_matrices(s)[0].tensor
        assert t[0, 0] + t[1, 1] == 0.0
        assert t[0, 1] == t[1, 0]


def test_aux_principal_momentum_axis():
    aux = aux_functions_principal(OscState(1.0, 0.0, 2.0))
    assert aux.theta == 0.0
    npt.assert_allclose([aux.a_plus, aux.a_minus], [2.0, 0.0], atol=1e-12)
    npt.assert_allclose([aux.d_plus, aux.d_minus], [4.0, 0.0], atol=1e-12)


def test_aux_principal_coordinate_axis():
    aux = aux_functions_principal(OscState(1.0, 1.0, 0.0))
    npt.assert_allclose(aux.theta, math.pi / 2, atol=1e-15)
    npt.assert_allclose([aux.a_plus, aux.a_minus], [1.0, 1.0], atol=1e-12)
    npt.assert_allclose([aux.d_plus, aux.d_minus], [-1.0, 1.0], atol=1e-12)


def test_aux_zero_energy_state():
    aux = aux_functions_principal(OscState(1.0, 0.0, 0.0))
    assert (aux.a_plus, aux.a_minus, aux.d_plus, aux.d_minus, aux.theta) == (0,) * 5


def test_aux_defining_relations_random():
    rng = trial_rng(2, 1)
    for _ in range(300):
        s = random_state(rng)
        aux = aux_functions_principal(s)
        sq2h = math.sqrt(2.0 * hamiltonian(s))
        scale = 1e-12 * (1.0 + sq2h)
        assert abs(aux.a_plus ** 2 + aux.a_minus ** 2 - 2.0 * sq2h) <= scale
        assert abs(aux.a_plus ** 2 - aux.a_minus ** 2 - 2.0 * s.p) <= scale
        assert abs(aux.a_plus * aux.a_minus - s.omega * s.q) <= scale
        assert aux.a_plus >= 0.0


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
    rng = trial_rng(2, 2)
    states = [random_state(rng) for _ in range(100)]
    theta = np.array([math.atan2(s.omega * s.q, s.p) for s in states])
    h = np.array([hamiltonian(s) for s in states])
    for k in range(len(states)):
        a1 = _aux_values(float(theta[k]), float(h[k]))
        a2 = _aux_values(float(theta[k]) + 2.0 * math.pi, float(h[k]))
        scale = 1e-12 * (1.0 + abs(a1[0]) + abs(a1[2])) ** 3
        assert max(abs(x + y) for x, y in zip(a1, a2)) <= scale
    a1, a2 = np.array(_aux_values(theta, h)), np.array(_aux_values(theta + 2.0 * math.pi, h))
    assert np.all(np.abs(a1 + a2) <= 1e-12 * (1.0 + np.abs(a1[0]) + np.abs(a1[2])) ** 3)


def test_aux_cubic_consistency_enforced():
    with pytest.raises(ValueError):
        AuxFunctions(1.0, 1.0, 5.0, 1.0, 0.0)


def test_g_functions_frozen_offshell():
    g = g_functions(OscState(1.0, 1.0, 0.0), 0.0, 0.0)
    npt.assert_allclose(g, [0.5, -0.5, 1.5, 1.5], atol=1e-12)


def test_g_functions_onshell_vanish():
    for s in (OscState(1.0, 1.0, 0.0), OscState(2.0, 1.0, 0.0)):
        g = g_functions(s, *hamilton_rhs(s))
        npt.assert_allclose(g, np.zeros(4), atol=1e-12 * (1.0 + hamiltonian(s)))

    rng = trial_rng(2, 3)
    for _ in range(500):
        s = random_state(rng)
        g = g_functions(s, *hamilton_rhs(s))
        assert max(map(abs, g)) <= 1e-12 * (1.0 + hamiltonian(s))


def test_g_functions_degenerate_state():
    with pytest.raises(DegenerateStateError):
        g_functions(OscState(1.0, 0.0, 0.0), 1.0, 1.0)


def test_g_functions_detect_offshell_flows():
    rng = trial_rng(2, 4)
    for _ in range(300):
        s = random_state(rng)
        dq0, dp0 = hamilton_rhs(s)
        angle = rng.uniform(0.0, 2.0 * math.pi)
        radius = rng.uniform(0.1, 2.0)
        g = g_functions(s, dq0 + radius * math.cos(angle), dp0 + radius * math.sin(angle))
        assert max(abs(g[0]), abs(g[1])) >= 1e-3


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
    rng = trial_rng(2, 5)
    for _ in range(50):
        s = random_state(rng)
        c1 = rng.uniform(-1, 1, 8)
        c2 = rng.uniform(-1, 1, 8)
        a, b = rng.uniform(-2, 2, 2)
        lhs = mu_family(s, MuParams(tuple(a * c1 + b * c2))).coeffs
        rhs = a * mu_family(s, MuParams(tuple(c1))).coeffs + b * mu_family(s, MuParams(tuple(c2))).coeffs
        scale = 1e-12 * (1.0 + hamiltonian(s) ** 1.5)
        assert np.max(np.abs(lhs - rhs)) <= scale


def test_mu_params_validation():
    with pytest.raises(ValueError):
        MuParams((1.0,) * 7)
    with pytest.raises(ValueError):
        MuParams((math.inf,) + (0.0,) * 7)


def _gamma(s, dq, dp):
    # the 8x8 constraint matrix at a state for candidate derivatives (dq, dp)
    return _gamma_from_g(g_functions(s, dq, dp))


def test_gamma_onshell_zero():
    rng = trial_rng(2, 6)
    for _ in range(200):
        s = random_state(rng)
        gm = _gamma(s, *hamilton_rhs(s))
        assert np.max(np.abs(gm)) <= 1e-12 * (1.0 + hamiltonian(s))


def test_gamma_frozen_first_row():
    gm = _gamma(OscState(1.0, 1.0, 0.0), 0.0, 0.0)
    npt.assert_allclose(gm[0], [0.0, 0.5, -0.5, 0.0, 0.0, -0.5, 0.5, 0.0], atol=1e-12)


def test_gamma_structural_sparsity():
    mask = gamma_structural_zeros()
    assert mask.sum() == 24  # four per rotation row, none in the cubic rows
    rng = trial_rng(2, 7)
    for _ in range(100):
        s = random_state(rng)
        gm = _gamma(s, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        assert np.all(gm[mask] == 0.0)


def test_gamma_arrays_follow_the_pattern():
    # entry by entry from the pattern's tokens, as the arrays are meant to read it
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
    npt.assert_allclose(proof_identity_residuals(OscState(1.0, 1.0, 0.0)), (0, 0, 0), atol=1e-12)
    npt.assert_allclose(proof_identity_residuals(OscState(1.0, 0.0, 2.0)), (0, 0, 0), atol=1e-12)
    npt.assert_allclose(proof_identity_residuals(OscState(1.0, 0.0, 0.0)), (0, 0, 0), atol=1e-15)


def test_proof_identities_random():
    rng = trial_rng(2, 8)
    for _ in range(500):
        s = random_state(rng)
        r = proof_identity_residuals(s)
        assert max(map(abs, r)) <= 1e-12 * (1.0 + hamiltonian(s) ** 1.5)


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
    s = random_state(rng)
    h = hamiltonian(s)
    aux = aux_functions_principal(s)
    sq2h = math.sqrt(2.0 * h)
    rel = max(
        abs(aux.a_plus ** 2 + aux.a_minus ** 2 - 2.0 * sq2h),
        abs(aux.a_plus ** 2 - aux.a_minus ** 2 - 2.0 * s.p),
        abs(aux.a_plus * aux.a_minus - s.omega * s.q),
    )
    r_delta, r_minus, r_plus = proof_identity_residuals(s)
    g_on = g_functions(s, *hamilton_rhs(s))
    dq, dp = rng.uniform(-2.0, 2.0, size=2)
    da_p, da_m = _a_dots(s.omega, dq, dp, aux.a_plus, aux.a_minus)
    row1 = (aux.a_plus * da_p + aux.a_minus * da_m) - (
        s.p * dp + s.omega ** 2 * s.q * dq
    ) / sq2h
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


def test_identity_draws_follow_each_trial_stream():
    draws = _identity_draws(104, 40, 340)
    for k in range(40, 340):
        rng = trial_rng(104, k)
        s = random_state(rng)
        expected = [s.omega, s.q, s.p, *rng.uniform(-2.0, 2.0, size=2)]
        assert draws[:, k - 40].tolist() == expected


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
