import math

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
    aux_functions_continuous,
    aux_functions_principal,
    g_functions,
    gamma_matrix,
    hamilton_rhs,
    hamiltonian,
    lax_matrices,
    mu_family,
    proof_identity_residuals,
    proof_identity_suite,
    random_state,
    trial_rng,
)
from operlax.oscillator import (
    _GAMMA_PATTERN,
    _gamma_from_g,
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
    aux = aux_functions_continuous(s, 0.0)
    npt.assert_allclose([aux.a_plus, aux.a_minus], [2.0, 0.0], atol=1e-12)


def test_aux_continuous_second_sheet_flips_sign():
    s = OscState(1.0, 0.0, 2.0)
    aux = aux_functions_continuous(s, 2.0 * math.pi)
    npt.assert_allclose([aux.a_plus, aux.a_minus], [-2.0, 0.0], atol=1e-12)
    npt.assert_allclose([aux.d_plus, aux.d_minus], [-4.0, 0.0], atol=1e-12)
    # defining relations still hold on the second sheet
    npt.assert_allclose(aux.a_plus ** 2 - aux.a_minus ** 2, 2.0 * s.p, atol=1e-12)

    aux = aux_functions_continuous(OscState(1.0, 1.0, 0.0), math.pi / 2)
    npt.assert_allclose([aux.a_plus, aux.a_minus], [1.0, 1.0], atol=1e-12)


def test_aux_continuous_sheet_flip_everywhere():
    rng = trial_rng(2, 2)
    for _ in range(100):
        s = random_state(rng)
        theta = math.atan2(s.omega * s.q, s.p)
        a1 = aux_functions_continuous(s, theta)
        a2 = aux_functions_continuous(s, theta + 2.0 * math.pi)
        scale = 1e-12 * (1.0 + abs(a1.a_plus) + abs(a1.d_plus)) ** 3
        assert abs(a2.a_plus + a1.a_plus) <= scale
        assert abs(a2.a_minus + a1.a_minus) <= scale
        assert abs(a2.d_plus + a1.d_plus) <= scale
        assert abs(a2.d_minus + a1.d_minus) <= scale


def test_aux_continuous_rejects_wrong_angle():
    with pytest.raises(ValueError):
        aux_functions_continuous(OscState(1.0, 0.0, 2.0), 0.5)


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


def test_gamma_onshell_zero():
    rng = trial_rng(2, 6)
    for _ in range(200):
        s = random_state(rng)
        gm = gamma_matrix(s, *hamilton_rhs(s))
        assert np.max(np.abs(gm.entries)) <= 1e-12 * (1.0 + hamiltonian(s))


def test_gamma_frozen_first_row():
    gm = gamma_matrix(OscState(1.0, 1.0, 0.0), 0.0, 0.0)
    npt.assert_allclose(gm.entries[0], [0.0, 0.5, -0.5, 0.0, 0.0, -0.5, 0.5, 0.0], atol=1e-12)


def test_gamma_structural_sparsity():
    mask = gamma_structural_zeros()
    assert mask.sum() == 24  # four per rotation row, none in the cubic rows
    rng = trial_rng(2, 7)
    for _ in range(100):
        s = random_state(rng)
        gm = gamma_matrix(s, float(rng.uniform(-2, 2)), float(rng.uniform(-2, 2)))
        assert np.all(gm.entries[mask] == 0.0)


def test_gamma_arrays_follow_the_pattern():
    # entry by entry from the pattern's tokens, as the arrays are meant to read it
    g = (0.3, -1.7, 2.9, -0.05)
    lookup = dict(zip("pmPM", g))
    expected = [[0.0 if tok == "0" else float(tok[0] + "1") * lookup[tok[1]] for tok in row.split()]
                for row in _GAMMA_PATTERN]
    npt.assert_array_equal(_gamma_from_g(g), expected)
    npt.assert_array_equal(gamma_structural_zeros(), np.array(expected) == 0.0)


def test_gamma_degenerate_state():
    with pytest.raises(DegenerateStateError):
        gamma_matrix(OscState(1.0, 0.0, 0.0), 0.0, 0.0)


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
