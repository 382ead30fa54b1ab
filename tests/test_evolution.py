import math
import tracemalloc
import warnings
from collections import namedtuple
from dataclasses import replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from operlax import (
    BranchCutError,
    DegenerateStateError,
    DimensionMismatchError,
    DivergenceError,
    EnergyOverflowError,
    IntegratorConfig,
    LawReport,
    MuParams,
    OscState,
    analytic_mu,
    evolve,
    gerstenhaber_bracket,
    hamiltonian,
    lax_matrices,
    make_operation,
    mu_family,
    operad_law_suite,
    operadic_lax_rhs,
    pde_residual,
    proof_identity_suite,
    random_operation,
    rk4_order_check,
    structure_constant_rhs,
    structure_rhs_matrix,
    theorem_suite,
    trajectory_csv_chunks,
    trajectory_csv_lines,
    trial_rng,
)
from operlax import calculus, evolution, oscillator
from operlax.evolution import (
    _PDE_RANGES,
    _THEOREM_RANGES,
    CHUNK_STEPS,
    CSV_HEADER,
    Trajectory,
    _Batch,
    _config_batch,
    _csv_bytes,
    _increment_matrix,
    _increment_powers,
    _pde_residuals,
    _power_table,
    _rk4_chunks,
    pde_suite,
)
from operlax.oscillator import _OMEGAS, _aux_values, _family_coeffs, _polar, _trial_draws

C5 = MuParams((0, 0, 0, 0, 1, 0, 0, 0))


def _matrix_lax_rhs(L, M):
    # classical commutator ML - LM of two linear operations
    return make_operation(L.dim, 1, M.tensor @ L.tensor - L.tensor @ M.tensor)


def test_matrix_lax_rhs_frozen():
    L, M = lax_matrices(OscState(1.0, 1.0, 0.0))
    npt.assert_array_equal(_matrix_lax_rhs(L, M).tensor, [[-1.0, 0.0], [0.0, 1.0]])
    npt.assert_array_equal(_matrix_lax_rhs(M, M).coeffs, np.zeros(4))
    L2, M2 = lax_matrices(OscState(1.0, 0.0, 1.0))
    npt.assert_array_equal(_matrix_lax_rhs(L2, M2).tensor, [[0.0, 1.0], [1.0, 0.0]])


def test_matrix_lax_rhs_equals_bracket():
    rng = trial_rng(4, 0)
    for _ in range(30):
        L = random_operation(rng, 2, 1)
        M = random_operation(rng, 2, 1)
        npt.assert_allclose(_matrix_lax_rhs(L, M).coeffs,
                            gerstenhaber_bracket(M, L).coeffs, atol=1e-14, rtol=0)


def test_operadic_lax_rhs_zero_and_frozen():
    M = make_operation(2, 1, [0.0, -0.5, 0.5, 0.0])
    zero = make_operation(2, 2, np.zeros(8))
    npt.assert_array_equal(operadic_lax_rhs(zero, M).coeffs, np.zeros(8))

    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 0.5
    npt.assert_allclose(operadic_lax_rhs(make_operation(2, 2, coeffs), M).coeffs,
                        expected, atol=1e-15, rtol=0)


@pytest.mark.parametrize("rhs", [operadic_lax_rhs, structure_constant_rhs])
def test_lax_rhs_rejects_mismatched_operations(rhs):
    M2, M3 = make_operation(2, 1, np.zeros(4)), make_operation(3, 1, np.zeros(9))
    with pytest.raises(DimensionMismatchError, match="dimension mismatch"):
        rhs(make_operation(2, 2, np.zeros(8)), M3)
    with pytest.raises(DimensionMismatchError, match="arities"):
        rhs(M2, M2)


def test_bracket_equals_index_formula():
    # keystone equivalence between the bracket route and the index route
    rng = trial_rng(4, 1)
    for d in (2, 3):
        for _ in range(100):
            mu = random_operation(rng, d, 2)
            M = random_operation(rng, d, 1)
            lhs = operadic_lax_rhs(mu, M).coeffs
            rhs = structure_constant_rhs(mu, M).coeffs
            assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_structure_constant_rhs_frozen():
    M = make_operation(2, 1, [0.0, -0.5, 0.5, 0.0])
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    out = structure_constant_rhs(make_operation(2, 2, coeffs), M).coeffs
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 0.5
    npt.assert_allclose(out, expected, atol=1e-15, rtol=0)
    npt.assert_array_equal(
        structure_constant_rhs(make_operation(2, 2, np.zeros(8)), M).coeffs, np.zeros(8)
    )


def test_structure_constant_rhs_overflow_raises_without_warning():
    big = make_operation(2, 2, [1e200] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            structure_constant_rhs(big, make_operation(2, 1, [1e200] * 4))


def test_structure_rhs_matrix_reproduces_formula():
    rng = trial_rng(4, 2)
    for d in (2, 3):
        M = random_operation(rng, d, 1)
        lam = structure_rhs_matrix(M)
        for _ in range(20):
            mu = random_operation(rng, d, 2)
            # against the bracket route, which shares no code with the matrix
            npt.assert_allclose(lam @ mu.coeffs, gerstenhaber_bracket(M, mu).coeffs,
                                atol=1e-14, rtol=0)


def _kronecker_rhs_matrix(M):
    # the Kronecker form structure_rhs_matrix replaced
    m, eye = M.tensor, np.eye(M.dim)
    return (np.kron(np.kron(m, eye), eye) - np.kron(np.kron(eye, m.T), eye)
            - np.kron(eye, np.kron(eye, m.T)))


def test_structure_rhs_matrix_equals_kronecker_form():
    rng = trial_rng(4, 3)
    for d in (1, 2, 3):
        for _ in range(20):
            M = random_operation(rng, d, 1)
            assert structure_rhs_matrix(M).tobytes() == _kronecker_rhs_matrix(M).tobytes()
    # signed zeros: m * 0 keeps the sign of m in both forms
    M = make_operation(2, 1, [-1.0, 0.0, -0.0, 2.0])
    assert structure_rhs_matrix(M).tobytes() == _kronecker_rhs_matrix(M).tobytes()


SystemState = namedtuple("SystemState", "t osc mu")


def _system_state(omega, q, p, mu):
    return SystemState(0.0, OscState(omega, q, p), mu)


def _rk4_step(state, dt):
    # one step of the joint system: the single-run, single-step case of the chunk kernel
    w = state.osc.omega
    y0 = np.concatenate(([state.osc.q, state.osc.p], state.mu.coeffs))
    d = _increment_matrix(w, dt)
    _, ys = next(_rk4_chunks(y0[None], [_increment_powers(d, 1)], 1, range(1)))
    y1 = ys[0, 1]
    return SystemState(state.t + dt, OscState(w, float(y1[0]), float(y1[1])),
                       make_operation(2, 2, y1[2:]))


def test_rk4_step_against_closed_form():
    st = _system_state(1.0, 0.0, 1.0, make_operation(2, 2, np.zeros(8)))
    st1 = _rk4_step(st, 0.1)
    # one classical step carries local truncation dt^5/120 on the sine component
    q_err = abs(st1.osc.q - math.sin(0.1))
    assert q_err <= 1e-7
    assert 0.8 <= q_err / (0.1 ** 5 / 120.0) <= 1.2
    assert abs(st1.osc.p - math.cos(0.1)) <= 1e-8
    assert st1.t == 0.1


def test_rk4_step_zero_mu_is_fixed():
    st = _system_state(1.0, 0.0, 1.0, make_operation(2, 2, np.zeros(8)))
    for _ in range(5):
        st = _rk4_step(st, 0.05)
        npt.assert_array_equal(st.mu.coeffs, np.zeros(8))


def test_rk4_step_origin_mu_rotates():
    rng = trial_rng(4, 3)
    mu0 = random_operation(rng, 2, 2)
    st = _system_state(1.0, 0.0, 0.0, mu0)
    for _ in range(20):
        st = _rk4_step(st, 0.05)
    assert st.osc.q == 0.0 and st.osc.p == 0.0
    assert np.max(np.abs(st.mu.coeffs - mu0.coeffs)) > 1e-3
    # the constant-M flow is a rotation in coefficient space; RK4 preserves
    # the norm up to the (freq*dt)^6/72 amplification per step
    npt.assert_allclose(np.linalg.norm(st.mu.coeffs), np.linalg.norm(mu0.coeffs), rtol=1e-6)


def _rk4_vec(y, b, dt):
    # staged classical RK4, the reference for the increment-form propagator
    k1 = b @ y
    k2 = b @ (y + 0.5 * dt * k1)
    k3 = b @ (y + 0.5 * dt * k2)
    k4 = b @ (y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def test_propagator_matches_staged_rk4():
    rng = trial_rng(4, 6)
    params = MuParams(tuple(rng.uniform(-1, 1, 8)))
    cfg = IntegratorConfig(dt=1e-3, t_end=20.0, omega=2.0, q0=0.5, p0=-0.4, params=params)
    traj = evolve(cfg)
    _, M = lax_matrices(cfg.initial_state())
    b = np.zeros((10, 10))
    b[0, 1], b[1, 0] = 1.0, -cfg.omega ** 2
    b[2:, 2:] = structure_rhs_matrix(M)
    y = np.concatenate(([cfg.q0, cfg.p0], mu_family(cfg.initial_state(), params).coeffs))
    for _ in range(20000):
        y = _rk4_vec(y, b, cfg.dt)
    final = np.concatenate(([traj.q[-1], traj.p[-1]], traj.mu[-1]))
    assert len(traj) == 20001
    assert np.max(np.abs(final - y)) <= 1e-12


def test_propagator_divergence_names_first_step():
    with np.errstate(over="ignore", invalid="ignore"):
        tables = [_increment_powers(np.eye(10) * 1e300, CHUNK_STEPS)]
        with pytest.raises(DivergenceError, match="step 2$"):
            for _ in _rk4_chunks(np.ones((1, 10)), tables, 3000, range(1)):
                pass


def _theorem_configs(seed, n, dt, t_end):
    # the runs of the theorem suite's first n trials at seed, as its draws give them
    w, h, theta, *cs = _trial_draws(seed, range(n), _THEOREM_RANGES, True)
    q, p = _polar(w, h, theta)
    return [IntegratorConfig(dt, t_end, *x, MuParams(c))
            for *x, c in zip(w.tolist(), q.tolist(), p.tolist(), np.transpose(cs).tolist())]


def _batch(configs):
    # one batch of the configs' runs, with the first one's dt and t_end
    w, q, p = (np.array([getattr(c, f) for c in configs], dtype=float)
               for f in ("omega", "q0", "p0"))
    return _Batch(configs[0].dt, configs[0].t_end, w, q, p, [c.params.c for c in configs])


@pytest.mark.parametrize("n_steps", [1, CHUNK_STEPS - 1, CHUNK_STEPS, CHUNK_STEPS + 1, 20000])
def test_chunk_kernel_matches_per_step_loop(n_steps):
    configs = _theorem_configs(5, 3, 1e-3, 1.0)
    d = np.stack([_increment_matrix(c.omega, c.dt) for c in configs])
    tables = [_increment_powers(x, CHUNK_STEPS) for x in d]
    y0 = _batch(configs).y0
    got = np.concatenate([ys.copy() for _, ys in _rk4_chunks(y0, tables, n_steps,
                                                             range(len(y0)))], axis=1)
    want = [y0]
    for _ in range(n_steps):
        want.append(want[-1] + np.einsum("kij,kj->ki", d, want[-1]))
    want = np.swapaxes(want, 0, 1)  # trial-major, as the chunks come
    assert got.shape == (3, n_steps + 1, 10)
    assert np.array_equal(got[:, 0], y0)
    # both round at ~eps*|y| per step: 5e-15 to 1e-14 of the largest state
    # value after 20k steps, over nine sampled configs
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_propagator_divergence_of_two_dim_run():
    # a 2-dim run steps 6400 per chunk, so all 3000 steps are one chunk
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step 1751$"):
            for _ in _rk4_chunks(np.ones((1, 2)), [_increment_powers(0.5 * np.eye(2), 6400)],
                                 3000, range(1)):
                pass


def test_propagator_divergence_in_later_chunk():
    # 1.5**1751 is the first power above the largest double
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError, match="step 1751$"):
            for _ in _rk4_chunks(np.ones((1, 10)), [_increment_powers(0.5 * np.eye(10), 256)],
                                 3000, range(1)):
                pass


def _per_trial_y0(configs):
    # the initial states as the per-trial mu_family path built them
    return np.array([[c.q0, c.p0, *mu_family(c.initial_state(), c.params).coeffs]
                     for c in configs])


def test_batch_y0_equals_per_trial_family():
    for seed in range(200):
        configs = _theorem_configs(seed, 20, 1e-3, 1.0)
        assert _batch(configs).y0.tobytes() == _per_trial_y0(configs).tobytes()
    # signed zeros of q, on both sides of the branch cut
    configs = [IntegratorConfig(1e-3, 1.0, 1.0, q0, p0, C5)
               for q0 in (0.0, -0.0) for p0 in (1.0, -1.0)]
    assert _batch(configs).y0.tobytes() == _per_trial_y0(configs).tobytes()


def _four_call_amplitudes(batch):
    # the amplitude matrix as one _family_coeffs call per part
    ap, am, dp, dm = _aux_values(batch.theta0, batch.h0)
    parts = ((ap, am, 0.0, 0.0), (-am, ap, 0.0, 0.0), (0.0, 0.0, dp, dm), (0.0, 0.0, -dm, dp))
    return np.stack([_family_coeffs(*aux, batch.cs) for aux in parts], axis=1)


def _per_trial_trig_mu(batch, t):
    # the reference with the trig taken for every trial
    half = (batch.w * t / 2.0).T
    c, s = np.cos(half), np.sin(half)
    b = np.stack((c, s, c * (c * c - 3.0 * s * s), s * (3.0 * c * c - s * s)), -1)
    return np.matmul(b, batch.amplitudes)


def test_amplitudes_and_reference_equal_per_trial_forms():
    configs = _theorem_configs(13, 18, 1e-3, 20.0)
    assert {c.omega for c in configs} == set(_OMEGAS)
    # zero parameters and a zero A-, where coefficients are sums of signed zeros
    configs += [IntegratorConfig(1e-3, 20.0, 1.0, 0.0, 1.0, C5),
                IntegratorConfig(1e-3, 20.0, 2.0, -0.0, 1.0, MuParams.zeros())]
    t = 7.0 + np.arange(300)[:, None] * 1e-3
    base = np.linspace(0.0, 20.0, 8)[:, None]  # the antiperiodicity check's times
    for batch in (_batch(configs), _batch(configs[:1])):
        assert batch.amplitudes.tobytes() == _four_call_amplitudes(batch).tobytes()
        assert batch.analytic_mu(t).tobytes() == _per_trial_trig_mu(batch, t).tobytes()
        # a period's shift taken per distinct omega equals the same shift taken per trial
        per_omega = batch.analytic_mu(base + 2.0 * math.pi / batch.omegas)
        per_trial = _per_trial_trig_mu(batch, base + 2.0 * math.pi / batch.w)
        assert per_omega.tobytes() == per_trial.tobytes()


def test_omega_draw_equals_choice(monkeypatch):
    # each trial's stream state once the theorem draws are taken from it
    made, raws = [], oscillator._trial_raws

    def spying(seed, k):
        made.append(trial_rng(seed, k))
        return made[-1]

    def rejecting(seed, ks, count):
        out = raws(seed, ks, count)
        out[7, 0] &= np.uint64(0xFFFFFFFF00000000)
        return out

    monkeypatch.setattr(oscillator, "trial_rng", spying)
    # seeds within and past 64 bits read raw words and draw from no stream; a zero
    # low word (Lemire's rejection) draws from each trial's stream in turn
    for seed, streamed in ((17, 0), (2 ** 64 + 17, 0), (17, 300), (2 ** 64 + 17, 300)):
        made.clear()
        monkeypatch.setattr(oscillator, "_trial_raws", rejecting if streamed else raws)
        draws = _trial_draws(seed, range(300), _THEOREM_RANGES, True)
        assert len(made) == streamed
        for k in range(300):
            ref = trial_rng(seed, k)
            expected = [float(ref.choice(_OMEGAS)), ref.uniform(0.1, 10.0),
                        ref.uniform(-math.pi, math.pi), *ref.uniform(-1.0, 1.0, size=8)]
            assert draws[:, k].tolist() == expected
            if streamed:  # and the streams stand at the same place, 32-bit buffer included
                assert made[k].bit_generator.state == ref.bit_generator.state


def _chunk_states(y0, tables, n_steps, group):
    return np.concatenate([ys.copy() for _, ys in _rk4_chunks(y0, tables, n_steps, group)], axis=1)


def test_mixed_omega_batch_matches_single_runs():
    configs = _theorem_configs(12, 12, 1e-3, 0.6)
    assert {c.omega for c in configs} == {0.5, 1.0, 2.0}
    batch = np.concatenate([ys.copy() for _, ys in _batch(configs).records()], axis=1)
    for k, c in enumerate(configs):
        single = np.concatenate([ys.copy() for _, ys in _batch([c]).records()], axis=1)
        assert batch[k].tobytes() == single[0].tobytes()
    # the kernel itself, for a group in no order: one matmul per run of equal group
    # (here five runs), each trial's states those of its run alone, bit for bit
    group = [2, 0, 0, 1, 2, 2]
    tables = [_power_table(w, 1e-3, 10) for w in (0.5, 1.0, 2.0)]
    y0 = _batch(configs[:6]).y0
    got = _chunk_states(y0, tables, 600, group)
    for k, g in enumerate(group):
        assert got[k].tobytes() == _chunk_states(y0[k:k + 1], [tables[g]], 600, [0])[0].tobytes()


def test_increment_matrix_built_once_per_distinct_omega(monkeypatch):
    built = []
    original = evolution._increment_matrix

    def counting(omega, dt):
        built.append(omega)
        return original(omega, dt)

    monkeypatch.setattr(evolution, "_increment_matrix", counting)
    _power_table.cache_clear()
    theorem_suite(20, seed=7, tol=1e-6, t_end=0.3)
    theorem_suite(20, seed=7, tol=1e-6, t_end=0.3)
    omegas = {c.omega for c in _theorem_configs(7, 20, 1e-3, 0.3)}
    # one call per distinct omega, each with that omega alone, and none on the second run
    assert built == sorted(omegas)


def test_power_table_is_read_only():
    table = _power_table(1.0, 1e-3, 10)
    assert not table.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        table[0, 0] = 1.0


def _d_alone(omega, dt, dims):
    # omega's D built on its own, cut to its first dims coordinates
    return _increment_matrix(omega, dt)[:dims, :dims]


@pytest.mark.parametrize("dims, steps", [(10, CHUNK_STEPS), (2, 6400)])
@pytest.mark.parametrize("dt", [1e-3, 2e-3, 1e-4])
def test_power_table_is_the_powers_of_d_built_alone(dims, steps, dt):
    for omega in _OMEGAS:
        table = _power_table(omega, dt, dims)
        assert table.shape == (dims, dims * (steps + 1))
        assert table.tobytes() == _increment_powers(_d_alone(omega, dt, dims), steps).tobytes()


@pytest.mark.parametrize("dims, counts", [(10, (1, 2, 3, 100, 255, 256)),
                                          (2, (1, 3, 1000, 5000, 6399, 6400))])
@pytest.mark.parametrize("dt", [1e-3, 2e-3, 1e-4])
def test_shorter_power_table_is_a_prefix_of_the_full_one(dims, counts, dt):
    # so a run of fewer steps than the table holds reads its first columns
    for omega in _OMEGAS:
        table = _power_table(omega, dt, dims)
        for count in counts:
            short = _increment_powers(_d_alone(omega, dt, dims), count)
            assert short.tobytes() == table[:, :dims * (count + 1)].tobytes(), (omega, count)


def test_results_do_not_depend_on_the_table_cache():
    cfg = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.3, p0=-1.2, params=C5)
    calls = (lambda: repr(theorem_suite(20, 7, 1e-6, t_end=2.0)),
             lambda: evolve(replace(cfg, t_end=1.0, record_every=3)).table.tobytes(),
             lambda: repr(rk4_order_check(cfg)))
    for call in calls:
        _power_table.cache_clear()
        cold = call()
        built = _power_table.cache_info()
        assert built.misses > 0 and built.hits == 0
        assert call() == cold
        assert _power_table.cache_info().hits == built.misses  # each table read again


def test_power_table_cache_is_bounded():
    for k in range(20):
        evolve(IntegratorConfig(dt=1e-3, t_end=1e-2, omega=0.5 + 0.05 * k, q0=0.3, p0=-1.2))
    info = _power_table.cache_info()
    assert info.currsize == info.maxsize  # 20 distinct omegas, the oldest evicted


def test_theorem_batch_matches_single_runs():
    reports = {r.law_name: r for r in theorem_suite(3, seed=11, tol=1e-6, t_end=2.0)}
    for k, config in enumerate(_theorem_configs(11, 3, 1e-3, 2.0)):
        traj = evolve(config)
        tag = f"{k:02d}"
        assert abs(reports[f"trajectory-mu-{tag}"].max_abs_residual - traj.max_err_mu()) <= 1e-15
        assert abs(reports[f"energy-drift-{tag}"].max_abs_residual
                   - traj.max_energy_drift()) <= 1e-15
        assert reports[f"trajectory-mu-{tag}"].trials == len(traj)


def _compare_theorem_reports(trials, seed, tol, dt, t_end):
    # the theorem suite as its per-chunk body read each chunk through _Batch.compare,
    # trials in draw order: the reference for the suite's own reduction
    reports = []
    for ks in calculus._blocks(trials):
        w, h, theta, *cs = evolution._trial_draws(seed, ks, _THEOREM_RANGES, True)
        batch = _Batch(dt, t_end, w, *_polar(w, h, theta), np.transpose(cs))
        err, drift, det_worst, trace_worst = (np.zeros(len(ks)) for _ in range(4))
        for t, ys in batch.records():
            _, _, dev, dr = batch.compare(t, ys)
            err = np.maximum(err, dev.max(axis=(1, 2)))
            drift = np.maximum(drift, dr.max(axis=1))
            q, p, wk = ys[..., 0], ys[..., 1], w[:, None]
            det = p * (-p) - (wk * q) * (wk * q)
            det_worst = np.maximum(det_worst, np.abs(det + 2.0 * batch.h0[:, None]).max(axis=1))
            trace_worst = np.maximum(trace_worst, np.abs(p + (-p)).max(axis=1))
        t = np.linspace(0.0, t_end, 8)[:, None]
        anti = batch.analytic_mu(t) + batch.analytic_mu(t + 2.0 * math.pi / batch.omegas)
        columns = (err, drift, det_worst, trace_worst, np.abs(anti).max(axis=(1, 2)))
        n = batch.n_steps + 1
        for k, e, dr, det, trace, anti in zip(ks, *(x.tolist() for x in columns)):
            checks = (("antiperiodicity", 8, anti, anti <= 1e-9),
                      ("energy-drift", n, dr, dr <= 1e-9),
                      ("isospectral", n, max(det, trace), det <= 1e-8 and trace == 0.0),
                      ("trajectory-mu", n, e, e <= tol))
            reports += [LawReport(f"{law}-{k:02d}", m, r, ok, k) for law, m, r, ok in checks]
    return reports


def _report_bits(reports):
    return [(r.law_name, r.trials, r.max_abs_residual.hex(), r.passed, r.worst_case_seed)
            for r in reports]


@pytest.mark.parametrize("one_omega", [False, True])
@pytest.mark.parametrize("t_end", [1e-3, 0.5, 2.0])
@pytest.mark.parametrize("seed", [0, 7, 101])
def test_theorem_suite_equals_the_compare_reduction(seed, t_end, one_omega, monkeypatch):
    if one_omega:  # every trial of the block at omega 1: one run, one product per chunk
        draws = evolution._trial_draws
        monkeypatch.setattr(evolution, "_trial_draws",
                            lambda *args: np.vstack((np.ones(len(args[1])), draws(*args)[1:])))
    got = theorem_suite(20, seed, 1e-6, t_end=t_end)
    assert _report_bits(got) == _report_bits(_compare_theorem_reports(20, seed, 1e-6, 1e-3, t_end))
    # no worst case is -0.0, which a max taken as -min would give where every value is 0
    assert all(math.copysign(1.0, r.max_abs_residual) == 1.0 for r in got)


def test_theorem_suite_dt_guard_is_seed_independent():
    # dt = 0.07 suits the omegas 0.5 and 1 but not 2, and seed 1 draws no omega 2
    with pytest.raises(ValueError, match="dt"):
        theorem_suite(1, seed=1, tol=1e-6, dt=0.07, t_end=0.5)


def _theorem_with_peak(t_end):
    tracemalloc.start()
    try:
        reports = theorem_suite(20, seed=103, tol=1e-6, dt=1e-3, t_end=t_end)
        return reports, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem_suite_horizon_independent():
    short, short_peak = _theorem_with_peak(2.0)
    long, long_peak = _theorem_with_peak(20.0)
    assert [(r.law_name, r.passed) for r in long] == [(r.law_name, r.passed) for r in short]
    assert all(r.passed for r in long)
    # the batch is reduced chunk by chunk, so memory does not grow with t_end
    assert long_peak - short_peak <= 5 * 2 ** 20


def _analytic_state(config, t):
    # closed-form solution of the canonical equations at time t
    w, q0, p0 = config.omega, config.q0, config.p0
    return OscState(w, q0 * math.cos(w * t) + p0 / w * math.sin(w * t),
                    p0 * math.cos(w * t) - w * q0 * math.sin(w * t))


def test_analytic_state():
    cfg = IntegratorConfig(dt=1e-3, t_end=20.0, omega=1.0, q0=0.0, p0=1.0, params=C5)
    s0 = _analytic_state(cfg, 0.0)
    assert (s0.q, s0.p) == (0.0, 1.0)
    s = _analytic_state(cfg, math.pi / 2)
    npt.assert_allclose([s.q, s.p], [1.0, 0.0], atol=1e-15)
    h10 = hamiltonian(_analytic_state(cfg, 10.0))
    assert abs(h10 - 0.5) <= 1e-13 * 0.5


def _phase_function_mu(batch, t):
    # the family at the unwrapped angle theta0 + omega t, with H taken from the
    # closed-form (q, p); time-major, shape (rows, trials, 8)
    qa, pa = batch.analytic_qp(t)
    h = 0.5 * (pa * pa + batch.w * batch.w * qa * qa)
    return _family_coeffs(*_aux_values(batch.theta0 + batch.w * t, h), batch.cs)


def test_amplitude_reference_matches_phase_functions():
    batch = _batch(_theorem_configs(2, 20, 1e-3, 20.0))
    scale = 1.0 + batch.h0 ** 1.5
    for first in range(0, 20001, 5000):
        t = np.arange(first, min(first + 5000, 20001))[:, None] * 1e-3
        dev = np.abs(batch.analytic_mu(t) - np.swapaxes(_phase_function_mu(batch, t), 0, 1))
        # the two round differently at large angles: 8.2e-15 at most over seeds 0-9 (worst 2)
        assert np.max(dev.max(axis=(1, 2)) / scale) <= 1e-14


def test_reference_does_not_depend_on_its_batch():
    configs = _theorem_configs(9, 20, 1e-3, 20.0)
    batch = _batch(configs)
    t = 3.0 + np.arange(257)[:, None] * 1e-3
    full = batch.analytic_mu(t)
    for k, c in enumerate(configs):
        assert _batch([c]).analytic_mu(t)[0].tobytes() == full[k].tobytes()
    assert batch.analytic_mu(t[:100]).tobytes() == full[:, :100].tobytes()


def test_analytic_mu_initial_agreement():
    cfg = IntegratorConfig(dt=1e-3, t_end=20.0, omega=1.0, q0=0.3, p0=0.8, params=C5)
    npt.assert_array_equal(analytic_mu(cfg, 0.0).coeffs,
                           mu_family(cfg.initial_state(), cfg.params).coeffs)


def test_analytic_mu_takes_a_finite_number_t_quietly():
    # each once raised a numpy or Python error, ran at t = 1, or warned on stderr first
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, omega=2.0, q0=0.3, p0=0.8, params=C5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for t in ("x", None, 2 ** 1100, True, [1.0, 2.0], math.inf, 1e308):
            with pytest.raises(ValueError):
                analytic_mu(cfg, t)
    assert analytic_mu(cfg, 1).coeffs.tobytes() == analytic_mu(cfg, 1.0).coeffs.tobytes()


def test_analytic_mu_antiperiodicity():
    rng = trial_rng(4, 4)
    for omega in (0.5, 1.0, 2.0):
        params = MuParams(tuple(rng.uniform(-1, 1, 8)))
        cfg = IntegratorConfig(dt=1e-3, t_end=40.0, omega=omega, q0=0.4, p0=1.1, params=params)
        period = 2.0 * math.pi / omega
        for t in (0.0, 1.3, 5.7):
            a = analytic_mu(cfg, t).coeffs
            b = analytic_mu(cfg, t + period).coeffs
            c = analytic_mu(cfg, t + 2 * period).coeffs
            assert np.max(np.abs(a + b)) <= 1e-9
            assert np.max(np.abs(a - c)) <= 1e-9


def test_evolve_matches_family():
    cfg = IntegratorConfig(dt=1e-3, t_end=20.0, omega=1.0, q0=0.0, p0=1.0, params=C5)
    traj = evolve(cfg)
    assert traj.max_err_mu() <= 1e-6
    assert traj.max_energy_drift() <= 1e-9
    assert traj.t[0] == 0.0
    assert np.all(np.diff(traj.t) > 0.0)
    assert len(traj) == 20001
    assert traj.table.flags.c_contiguous
    # the table and its column views are read-only
    for column in (traj.t, traj.q, traj.mu, traj.table):
        with pytest.raises(ValueError):
            column[(0,) * column.ndim] = 1.0
    with pytest.raises(ValueError, match=r"shape \(n, 22\)"):
        Trajectory(traj.table[:, :21])


def test_evolve_zero_params_stays_zero():
    cfg = IntegratorConfig(dt=1e-3, t_end=2.0, omega=1.0, q0=0.0, p0=1.0,
                           params=MuParams.zeros())
    traj = evolve(cfg)
    assert traj.max_err_mu() == 0.0
    assert np.max(np.abs(traj.mu)) == 0.0


_SQRT_MAX = 1.3407807929942596e154  # the largest double is 2H at q0 = this, omega = 1, p0 = 0


@st.composite
def _edge_configs(draw):
    # (omega, q0, p0, C) on and near both overflow edges: 2H at the largest double, and
    # parameters that overflow the family, at t = 0 or as it turns
    omega = draw(st.floats(0.5, 100.0))
    phi = draw(st.floats(-math.pi, math.pi))
    r = draw(st.sampled_from([_SQRT_MAX, _SQRT_MAX * (1.0 - 2.0 ** -52), 1e150, 1.0]))
    c = draw(st.lists(st.one_of(st.floats(-1.0, 1.0), st.floats(allow_nan=False,
                                                                allow_infinity=False)),
                      min_size=8, max_size=8))
    return omega, r * math.cos(phi) / omega, r * math.sin(phi), c


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_edge_configs())
@example((1.0, _SQRT_MAX, 0.0, [0.0] * 8))  # H turns past the doubles near t = pi/4
@example((1.0, 1.0, 1.0, [1e308] * 8))  # the family overflows at t = 0
def test_evolve_ends_finite_or_in_a_typed_error(config):
    omega, q0, p0, c = config
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's RuntimeWarning among them: evolve is quiet
        try:
            traj = evolve(IntegratorConfig(1e-3, 7.0, omega, q0, p0, MuParams(c)))
        except ValueError:  # EnergyOverflowError and DegenerateStateError among them
            return
        except DivergenceError:  # the parameters' own solution leaves the doubles
            return
    assert np.isfinite(traj.table).all()


def test_evolve_overflow_errors_name_the_input():
    energy = r"^energy of \(q, p\) = \(1\.3407807929942596e\+154, 0\.0\) overflows$"
    with pytest.raises(EnergyOverflowError, match=energy):
        evolve(IntegratorConfig(1e-3, 7.0, 1.0, _SQRT_MAX, 0.0))
    with pytest.raises(ValueError, match=r"^params C1\.\.C8 overflow the family at the initial"):
        evolve(IntegratorConfig(1e-3, 1.0, 1.0, 1.0, 1.0, MuParams([1e308] * 8)))


@pytest.mark.parametrize("reference, energy, error", [
    (0, 2, EnergyOverflowError),  # H past the doubles outranks an earlier reference's overflow
    (None, 0, EnergyOverflowError),
    (1, None, ValueError),
])
def test_evolve_energy_overflow_outranks_the_reference(reference, energy, error, monkeypatch):
    # evolve checks each block as it builds it; this run's blocks are 2048 and 5 records, then
    # the last step, and an overflow is put into the reference or the energy of one of them
    compare, blocks = evolution._Batch.compare, []

    def overflowing(self, t, ys):
        h, mu_ana, dev, drift = compare(self, t, ys)
        blocks.append(len(blocks))
        if blocks[-1] == reference:
            mu_ana[..., 0] = np.inf
        if blocks[-1] == energy:
            h[..., -1] = np.inf
        return h, mu_ana, dev, drift

    monkeypatch.setattr(evolution._Batch, "compare", overflowing)
    with pytest.raises(ValueError) as raised:
        evolve(IntegratorConfig(1e-3, (8 * CHUNK_STEPS + 5) * 1e-3, 1.0, 0.3, -1.2, C5))
    assert type(raised.value) is error
    assert blocks == [0, 1, 2][:energy + 1 if error is EnergyOverflowError else 3]


def test_evolve_rejects_zero_energy():
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, omega=1.0, q0=0.0, p0=0.0, params=C5)
    with pytest.raises(DegenerateStateError):
        evolve(cfg)


def test_evolve_records_match_scalar_api():
    rng = trial_rng(4, 5)
    params = MuParams(tuple(rng.uniform(-1, 1, 8)))
    cfg = IntegratorConfig(dt=1e-3, t_end=3.0, omega=2.0, q0=0.5, p0=-0.4,
                           params=params, record_every=250)
    traj = evolve(cfg)
    for n, t in enumerate(traj.t.tolist()):
        # bit for bit: a single time takes the matrix path of a block of times
        assert analytic_mu(cfg, t).coeffs.tobytes() == traj.mu_ana[n].tobytes()
        s = OscState(cfg.omega, float(traj.q[n]), float(traj.p[n]))
        assert abs(hamiltonian(s) - traj.H[n]) <= 1e-15 * (1.0 + traj.H[n])
        assert traj.err[n] == max(abs(a - b) for a, b in zip(traj.mu[n], traj.mu_ana[n]))


def test_evolve_record_every_keeps_final_step():
    cfg = IntegratorConfig(dt=1e-3, t_end=1.0, omega=1.0, q0=0.0, p0=1.0,
                           params=C5, record_every=300)
    traj = evolve(cfg)
    steps = [round(t / cfg.dt) for t in traj.t.tolist()]
    assert steps == [0, 300, 600, 900, 1000]
    # a record_every past the step count, even past int64, keeps the first and last
    traj = evolve(replace(cfg, record_every=2 ** 64))
    assert [round(t / cfg.dt) for t in traj.t.tolist()] == [0, 1000]


def test_evolve_rows_do_not_depend_on_record_every():
    # evolve compares each block of records on its own, so a row's bits must not depend
    # on how many rows share its block, one included (numpy's one-row product rounds
    # otherwise); record_every 256 and up makes one-row blocks
    configs = _theorem_configs(5, 3, 1e-3, 6.0) + _theorem_configs(11, 3, 1e-3, 2.5)
    for cfg in configs:
        full = evolve(cfg).table
        n = len(full) - 1
        for every in (2, 3, 255, 256, 257, 300, 1000, 2 ** 64):
            steps = [*range(0, n, min(every, n)), n]
            assert evolve(replace(cfg, record_every=every)).table.tobytes() == \
                full[steps].tobytes()


@pytest.mark.parametrize("record_every", [1, 3])
def test_evolve_columns_are_the_chunks_states(record_every):
    # two blocks of 8 joined chunks (one trial), a short one and then the last step alone,
    # each copied before the next one overwrites the buffer it views
    block = 8 * CHUNK_STEPS
    cfg = IntegratorConfig(dt=1e-3, t_end=(2 * block + 5) * 1e-3, omega=2.0, q0=0.5,
                           p0=-0.4, params=C5, record_every=record_every)
    chunks = [ys[0].copy() for _, ys in _config_batch(cfg).records()]
    assert [len(ys) for ys in chunks] == [block] * 2 + [5, 1]
    ys = np.concatenate(chunks)
    keep = sorted({*range(0, len(ys), record_every), len(ys) - 1})
    traj = evolve(cfg)
    assert traj.q.tobytes() == ys[keep, 0].tobytes()
    assert traj.p.tobytes() == ys[keep, 1].tobytes()
    assert traj.mu.tobytes() == ys[keep, 2:].tobytes()


def test_evolve_l_spectrum_is_constant():
    cfg = IntegratorConfig(dt=1e-3, t_end=10.0, omega=2.0, q0=0.8, p0=0.3, params=C5)
    traj = evolve(cfg)
    lam0 = math.sqrt(2.0 * hamiltonian(cfg.initial_state()))
    for q, p in zip(traj.q[::500].tolist(), traj.p[::500].tolist()):
        L, _ = lax_matrices(OscState(cfg.omega, q, p))
        eig = np.sort(np.linalg.eigvals(L.tensor).real)
        npt.assert_allclose(eig, [-lam0, lam0], atol=1e-8, rtol=0)


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.3, t_end=1.0, omega=1.0, q0=0.0, p0=1.0)  # dt > 0.1/omega
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=-1.0, omega=1.0, q0=0.0, p0=1.0)
    for record_every in (0, 2.5, True):  # 2.5 would record steps 0, 5 and 10 of 10
        with pytest.raises(ValueError, match="record_every must be an int >= 1"):
            IntegratorConfig(dt=1e-3, t_end=1.0, omega=1.0, q0=0.0, p0=1.0,
                             record_every=record_every)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=1e-3, t_end=1e308, omega=1.0, q0=0.0, p0=1.0)  # t_end/dt = inf
    # every number a number (no bool) that a finite double holds, and params a MuParams
    for args in [("x", 1.0, 1.0, 0.0, 1.0), (1e-3, True, True, 0.0, 1.0),
                 (1e-3, 1.0, 1.0, math.nan, 1.0), (1e-3, 1.0, 1.0, 0.0, math.inf),
                 (1e-3, 2 ** 1100, 1.0, 0.0, 1.0), (1e-3, 1.0, 2 ** 1100, 0.0, 1.0),
                 (1e-3, 1.0, 1.0, 0.0, 1.0, (0.0,) * 8)]:
        with pytest.raises(ValueError):
            IntegratorConfig(*args)
    # its initial state is built, so an energy that overflows is refused before any run
    with pytest.raises(EnergyOverflowError):
        IntegratorConfig(dt=1e-3, t_end=1.0, omega=1.0, q0=0.0, p0=1e200)


def test_integrator_config_bounds_step_count():
    # times are step * dt, and a step index above 2**53 is not exact in a double
    IntegratorConfig(dt=1.0, t_end=2.0 ** 53, omega=0.1, q0=0.0, p0=1.0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        IntegratorConfig(dt=1.0, t_end=2.0 ** 54, omega=0.1, q0=0.0, p0=1.0)
    with pytest.raises(ValueError, match="2\\*\\*53"):
        IntegratorConfig(dt=1e-3, t_end=1e300, omega=1.0, q0=0.0, p0=1.0)


def test_evolve_memory_follows_records_not_steps():
    # 1e6 steps kept as 5 records; a per-step index array alone would be 8 MB
    cfg = IntegratorConfig(dt=1e-3, t_end=1000.0, omega=1.0, q0=0.0, p0=1.0,
                           params=C5, record_every=250_000)
    tracemalloc.start()
    try:
        traj = evolve(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [round(t / cfg.dt) for t in traj.t.tolist()] == [0, 250_000, 500_000, 750_000,
                                                             1_000_000]
    assert peak <= 2 * 2 ** 20


def _field_residual(s, mu_field, h):
    # max |p dmu/dq - w^2 q dmu/dp - [M, mu]| for any field mu_field(state), by central
    # differences of step h, with [M, mu] from gerstenhaber_bracket
    w, q, p = s.omega, s.q, s.p
    dmu_dq, dmu_dp = ((mu_field(OscState(w, *a)).coeffs - mu_field(OscState(w, *b)).coeffs)
                      / (2.0 * h) for a, b in (((q + h, p), (q - h, p)), ((q, p + h), (q, p - h))))
    bracket = operadic_lax_rhs(mu_field(s), lax_matrices(s)[1]).coeffs
    return float(np.max(np.abs(p * dmu_dq - w * w * q * dmu_dp - bracket)))


def test_pde_residual_family_is_solution():
    r = pde_residual(OscState(1.0, 0.0, 2.0), C5, 1e-5)
    assert r <= 1e-8


def test_pde_residual_constant_field_measures_bracket():
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    frozen = make_operation(2, 2, coeffs)
    r = _field_residual(OscState(1.0, 0.4, 1.2), lambda s: frozen, 1e-5)
    assert abs(r - 0.5) <= 1e-12  # derivatives vanish, bracket has max entry omega/2


def test_pde_residual_checks_h():
    for h in (True, 0.0, math.nan, "x"):
        with pytest.raises(ValueError, match="^h must be a number > 0"):
            pde_residual(OscState(1.0, 0.3, 1.0), C5, h)
    # an int that no double holds: float(h) would raise OverflowError
    with pytest.raises(ValueError, match="^h must be a finite number"):
        pde_residual(OscState(1.0, 0.3, 1.2), MuParams.zeros(), 2 ** 1100)
    # a step below the spacing of the state's doubles: q +- h (or p +- h) rounds onto
    # the centre, and the collapsed stencil would read as a residual of |[M, mu]|
    for h in (5e-324, 1e-310, 1e-20, 1e-17):
        with pytest.raises(ValueError, match="below the spacing of the state's doubles"):
            pde_residual(OscState(1.0, 0.3, 1.2), C5, h)
    with pytest.raises(ValueError, match="below the spacing of the state's doubles"):
        pde_residual(OscState(1.0, 1e12, 1.0), C5, 1e-5)  # the q stencil alone collapses
    assert pde_residual(OscState(1.0, 0.3, 1.2), C5, 1e-5) < 1e-10


def test_pde_residual_zero_params():
    assert pde_residual(OscState(1.0, 0.3, 1.0), MuParams.zeros(), 1e-5) == 0.0


def test_pde_residual_branch_cut_guard():
    with pytest.raises(BranchCutError):
        pde_residual(OscState(1.0, 1e-7, -1.0), C5, 1e-5)
    with pytest.raises(DegenerateStateError):
        pde_residual(OscState(1.0, 0.0, 0.0), C5, 1e-5)


def test_pde_guard_reports_the_first_stencil_point_near_the_cut():
    # of a batch, the first state near the cut, and of its four points the first
    # within 10 h / sqrt(2H) of it: (q + h, p), not (q, p - h) of the last state
    w, q, p = np.ones(3), np.array([0.3, 1e-7, -1e-7]), np.array([1.0, -1.0, -1.0])
    with pytest.raises(BranchCutError, match=r"^stencil point at angle 3\.141583 is within "
                                             r"1\.00e-04 of the cut$"):
        _pde_residuals(w, q, p, np.eye(8)[:3], 1e-5)


def _pde_cases():
    # (omega, q, p, C) of the 100 states of pde-check --seed 105 with their
    # parameters, then of the 64 (probe state, generator) pairs of its convergence probe
    pool = [trial_rng(105, 10_000 + j).uniform(-1.0, 1.0, size=8) for j in range(20)]
    w, log_h, theta = _trial_draws(105, range(100), _PDE_RANGES, True)
    probe_w, probe_log_h = np.repeat(_trial_draws(105, range(20_000, 20_008), _PDE_RANGES[:1],
                                                  True), 8, axis=1)
    w, log_h = np.concatenate((w, probe_w)), np.concatenate((log_h, probe_log_h))
    q, p = _polar(w, np.exp(log_h), np.concatenate((theta, np.zeros(64))))
    return w, q, p, np.array([pool[k % 20] for k in range(100)] + [*np.eye(8)] * 8)


@pytest.mark.parametrize("h", [1e-5, 5e-6])
def test_pde_batch_matches_field_residual(h):
    w, q, p, cs = _pde_cases()
    batch = _pde_residuals(w, q, p, cs, h)
    for k, s in enumerate(map(OscState, w.tolist(), q.tolist(), p.tolist())):
        params = MuParams(tuple(cs[k]))
        field = _field_residual(s, lambda st: mu_family(st, params), h)
        assert abs(batch[k] - field) <= 1e-15
        # a state's residual does not depend on the states that share its batch
        assert pde_residual(s, params, h) == batch[k]
    assert _pde_residuals(w[::-1], q[::-1], p[::-1], cs[::-1], h).tolist() == batch[::-1].tolist()


def test_pde_suite_reports_are_python_scalars():
    reports = pde_suite(20, 3, 1e-8)
    assert all(type(r.max_abs_residual) is float and type(r.passed) is bool for r in reports)


_SUITES = {"operad": operad_law_suite, "identities": proof_identity_suite,
           "theorem": lambda n, seed, tol: theorem_suite(n, seed, tol, t_end=0.01),
           "pde": pde_suite}


@pytest.mark.parametrize("suite", _SUITES)
@pytest.mark.parametrize("trials, tol", [
    (-1, 1e-6), (2.5, 1e-6), (True, 1e-6), ("3", 1e-6), (math.nan, 1e-6), (None, 1e-6),
    (3, 0.0), (3, -1e-6), (3, math.nan), (3, None), (3, True),
])
def test_suites_reject_bad_trials_and_tol(suite, trials, tol):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="must be"):
            _SUITES[suite](trials, 0, tol)


def test_suite_errors_name_the_trial_count():
    with pytest.raises(ValueError, match="^trials must be an int >= 0"):
        theorem_suite(-1, 0, 1e-6)
    with pytest.raises(ValueError, match="^n_states must be an int >= 0"):
        pde_suite(-1, 0, 1e-8)


def test_suites_at_zero_trials():
    assert [(r.trials, r.passed, r.worst_case_seed) for r in operad_law_suite(0, 0, 1e-10)
            + proof_identity_suite(0, 0, 1e-12)] == [(0, True, -1)] * 10
    assert theorem_suite(0, 0, 1e-6) == []
    assert pde_suite(0, 0, 1e-8)[0] == LawReport("pde-residual", 0, 0.0, True, -1)


def test_pde_suite_draws_only_the_parameter_vectors_its_states_read(monkeypatch):
    drawn, raws = [], oscillator._trial_raws

    def recording(seed, ks, count):
        drawn.append(len(ks))
        return raws(seed, ks, count)

    monkeypatch.setattr(oscillator, "_trial_raws", recording)
    reports = pde_suite(2, 0, 1e-8)
    # two states, two parameter vectors and eight probe states
    assert sorted(drawn) == [2, 2, 8]
    monkeypatch.undo()
    assert reports == pde_suite(2, 0, 1e-8)


def test_pde_stencil_energy_overflow_is_energy_overflow_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EnergyOverflowError, match="not finite"):
            pde_residual(OscState(1.0, 0.3, 1.0), C5, 1e200)


@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize("t_end", [-1.0, 0.0, math.nan, math.inf, 2.0 ** 53])
def test_theorem_suite_checks_t_end_at_any_trial_count(trials, t_end):
    with pytest.raises(ValueError, match="^t_end must be positive"):
        theorem_suite(trials, 0, 1e-6, t_end=t_end)


@pytest.mark.parametrize("trials", [0, 1])
def test_theorem_suite_t_end_past_the_doubles_is_value_error(trials):
    # an int that no double holds: t_end / dt would raise OverflowError
    with pytest.raises(ValueError, match=r"^t_end must be positive with at most 2\*\*53 steps"):
        theorem_suite(trials, 0, 1e-6, t_end=2 ** 1100)


def _short_run(trials, seed, **kwargs):
    # IntegratorConfig's keywords through one short evolve, which gives no reports
    evolve(IntegratorConfig(1e-3, 0.01, 1.0, 0.0, 1.0, **kwargs))
    return []


_FUZZ_VALUES = [0, -1, 0.5, math.nan, math.inf, -math.inf, 1e300, True, 2 ** 64, "x"]
# each suite's keyword arguments, drawn or left out; theorem_suite always draws
# t_end, whose valid value here (0.5) keeps its runs short
_FUZZ_KWARGS = {
    operad_law_suite: ({"tol": _FUZZ_VALUES}, {}),
    proof_identity_suite: ({"tol": _FUZZ_VALUES}, {}),
    theorem_suite: ({"tol": _FUZZ_VALUES, "t_end": _FUZZ_VALUES}, {"dt": _FUZZ_VALUES}),
    pde_suite: ({"tol": _FUZZ_VALUES}, {}),
    _short_run: ({"record_every": _FUZZ_VALUES}, {}),
}
_COUNTS = {"record_every": 1, "seed": 0}  # the least int each takes


def _refused(name, value):
    # a value that no keyword takes: a bool or a string; for a count or the seed anything
    # but an int >= its least, for every other keyword a number that is not > 0 (NaN too)
    if isinstance(value, (bool, str)):
        return True
    if name in _COUNTS:
        return not (isinstance(value, int) and value >= _COUNTS[name])
    return not value > 0


@st.composite
def _suite_calls(draw):
    suite = draw(st.sampled_from(list(_FUZZ_KWARGS)))
    required, optional = ({k: st.sampled_from(v) for k, v in d.items()}
                          for d in _FUZZ_KWARGS[suite])
    kwargs = draw(st.fixed_dictionaries(required, optional=optional))
    if suite is not _short_run:  # it draws nothing
        kwargs["seed"] = draw(st.sampled_from(_FUZZ_VALUES + [None]))
    return suite, draw(st.sampled_from([0, 1, 2])), kwargs


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(_suite_calls())
@example((theorem_suite, 1, {"tol": 1e-6, "t_end": 0.5, "dt": "x"}))  # no TypeError
@example((_short_run, 0, {"record_every": 0.5}))
@example((_short_run, 0, {"record_every": True}))
@example((_short_run, 0, {"record_every": 2 ** 64}))  # past int64: no OverflowError
def test_suite_fuzz_ends_in_reports_or_a_known_error(call):
    suite, trials, kwargs = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            reports = suite(trials, **{"seed": 0, **kwargs})
        except ValueError:  # DegenerateStateError and EnergyOverflowError among them
            return
        except (BranchCutError, DivergenceError):
            reports = []
    # a refused value ends in ValueError, before any work
    assert [k for k, v in kwargs.items() if _refused(k, v)] == []
    assert all(isinstance(r, LawReport) for r in reports)
    assert not any(r.passed and math.isnan(r.max_abs_residual) for r in reports)


def test_pde_suite_nan_halving_factor_fails(monkeypatch):
    monkeypatch.setattr(evolution, "_pde_residuals",
                        lambda w, q, p, cs, h: np.full(len(w), np.nan))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        halving = pde_suite(3, 0, 1e-6)[-1]
    assert halving.law_name == "pde-residual-halving"
    assert math.isnan(halving.max_abs_residual) and halving.passed is False


def test_rk4_order_check():
    cfg = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                           params=MuParams.zeros())
    # four-stage RK4 reads 15.5 here and the increment form y + D y 15.7;
    # applying I + D instead rounds away low bits of D and reads ~12
    assert 14.0 <= rk4_order_check(cfg) <= 17.0


def test_order_check_qp_block_matches_ten_dim_run(monkeypatch):
    cfg = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                           params=MuParams.zeros())
    runs = []

    def recording(y0, tables, n_steps, group):
        chunks = []
        runs.append(([x.shape for x in tables], n_steps, chunks))
        for first, ys in _rk4_chunks(y0, tables, n_steps, group):
            chunks.append(ys[0].copy())
            yield first, ys

    monkeypatch.setattr(evolution, "_rk4_chunks", recording)
    rk4_order_check(cfg)
    monkeypatch.undo()
    # (q, p) alone, one table of 6400 2x2 powers, so 6400 steps per chunk
    assert [(shapes, n, len(chunks)) for shapes, n, chunks in runs] == [
        ([(2, 2 * 6401)], 5000, 1), ([(2, 2 * 6401)], 10000, 2)]
    for dt, (_, _, chunks) in zip((2e-3, 1e-3), runs):
        full = np.concatenate([ys[0, :, :2].copy() for _, ys in
                               _batch([replace(cfg, dt=dt)]).records()])
        qp = np.concatenate(chunks)
        assert qp.shape == full.shape
        assert np.max(np.abs(qp - full)) <= 1e-13 * np.max(np.abs(full))


def _order_check_peak(t_end):
    cfg = IntegratorConfig(dt=1e-2, t_end=t_end, omega=1.0, q0=0.3, p0=-1.2)
    tracemalloc.start()
    try:
        rk4_order_check(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_rk4_order_check_rejects_zero_fine_error():
    # both steps of dt/2 from the momentum axis land exactly on the closed form
    cfg = IntegratorConfig(dt=1e-4, t_end=1e-4, omega=1.0, q0=0.0, p0=1.0)
    with pytest.raises(ValueError, match="undefined"):
        rk4_order_check(cfg)


def test_rk4_order_check_memory_is_flat_in_t_end():
    # the closed-form reference is taken per chunk, not for every step at once
    assert _order_check_peak(1000.0) - _order_check_peak(10.0) <= 2 ** 20


def _theorem_suite_peak(trials):
    tracemalloc.start()
    try:
        theorem_suite(trials, 0, 1e-6, t_end=0.5)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_theorem_suite_memory_is_flat_in_trials():
    # trials are drawn and stepped a block at a time, as in the other suites
    assert _theorem_suite_peak(2000) <= 1.2 * _theorem_suite_peak(256)


def test_rk4_order_two_doublings():
    # two halvings compound to roughly 16^2
    coarse = IntegratorConfig(dt=8e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                              params=MuParams.zeros())
    fine = IntegratorConfig(dt=4e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                            params=MuParams.zeros())
    compounded = rk4_order_check(coarse) * rk4_order_check(fine)
    assert 150.0 <= compounded <= 350.0


def test_trajectory_csv_format():
    cfg = IntegratorConfig(dt=1e-3, t_end=0.05, omega=1.0, q0=0.0, p0=1.0, params=C5)
    lines = list(trajectory_csv_lines(evolve(cfg)))
    assert lines[0] == CSV_HEADER
    assert lines[0] == (
        "t,q,p,H,mu_111,mu_112,mu_121,mu_122,mu_211,mu_212,mu_221,mu_222,"
        "amu_111,amu_112,amu_121,amu_122,amu_211,amu_212,amu_221,amu_222,"
        "err_mu_max,energy_drift"
    )
    assert len(lines) == 52
    for line in lines[1:]:
        values = [float(tok) for tok in line.split(",")]
        assert len(values) == 22
    # shortest round-trip formatting reparses exactly
    row = lines[1].split(",")
    assert float(row[2]) == 1.0


def _repr_rows(table):
    # the formatter's reference: every number by repr, one row at a time
    return [",".join(map(repr, row)) for row in np.asarray(table, dtype=float).tolist()]


def _repr_bytes(table):
    # the rows of _repr_rows as _csv_bytes writes them: ASCII, each ending in a newline
    return "".join(row + "\n" for row in _repr_rows(table)).encode()


def _repr_csv(traj):
    return [CSV_HEADER] + _repr_rows(np.column_stack(
        (traj.t, traj.q, traj.p, traj.H, traj.mu, traj.mu_ana, traj.err, traj.drift)))


def _table_trajectory(table):
    # a Trajectory whose CSV rows are the rows of table (n, 22)
    return Trajectory(np.array(table, dtype=float))


def _chunked_csv(traj):
    chunks = list(trajectory_csv_chunks(traj))
    # one bytes object per chunk of records, never one per line
    assert len(chunks) == 1 + math.ceil(len(traj) / CHUNK_STEPS)
    assert b"".join(chunks) == ("\n".join(trajectory_csv_lines(traj)) + "\n").encode()
    return b"".join(chunks).decode()


@settings(derandomize=True, database=None, max_examples=500, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=44))
def test_csv_rows_match_repr_for_every_float(values):
    # NaN and +-inf included: orjson writes them as null, so repr's string takes their place
    for table in (np.array([values]), np.array(values)[:, None]):
        assert _csv_bytes(table) == _repr_bytes(table)


# each side of every power of ten where orjson's spelling of a double leaves repr's,
# a band value inside longer numbers, the extremes and both zeros
_CSV_EDGES = [1e-05, 9.999999999999999e-05, 0.0001, 1e16, 9999999999999998.0, 1e-07,
              1e-09, 9.999999999999999e-10, 9.999999999999999e-06, 5e-324,
              1.7976931348623157e+308, 0.0, -0.0, 10.00001, 100.00001, 1e+22]


# every power of ten a double holds, from 1e-323 to 1e308, with its two neighbours, both
# signs: a row per power
_POWERS = np.array([float(f"1e{k}") for k in range(-323, 309)])[:, None]
_POWERS = np.hstack([np.nextafter(_POWERS, 0.0), _POWERS, np.nextafter(_POWERS, np.inf)])
_POWERS = np.hstack([_POWERS, -_POWERS])


@pytest.mark.parametrize("x", _CSV_EDGES)
def test_csv_rows_match_repr_at_edge_values(x):
    # the fifth and sixth break rows at a comma: x opens a row that is not the first, and
    # in the one-column table every comma is a row break; the last ends in a row of NaN,
    # +-inf and x, which repr spells among the numbers orjson writes
    for table in ([[x]], [[-x]], [[x, 1.0, -x]], [_CSV_EDGES], [[1.0, 2.0], [x, -x]],
                  np.array(_CSV_EDGES)[:, None],
                  np.vstack([_POWERS, [math.nan, x, math.inf, -x, -math.inf, 1.0]])):
        assert _csv_bytes(np.array(table)) == _repr_bytes(table)


@pytest.mark.parametrize("shape", [(0, 22), (0, 1), (3, 0)])
def test_csv_bytes_of_an_empty_table_is_one_newline_per_row(shape):
    assert _csv_bytes(np.zeros(shape)) == b"\n" * shape[0]


def test_csv_writes_non_finite_values_as_repr_does():
    table = np.tile(np.linspace(-1.0, 1.0, 22), (3, 1))
    table[0, 4], table[1, 12], table[2, 21] = math.nan, math.inf, -math.inf
    lines = list(trajectory_csv_lines(_table_trajectory(table)))
    assert lines == _repr_csv(_table_trajectory(table))
    assert [line.split(",")[k] for line, k in zip(lines[1:], (4, 12, 21))] == ["nan", "inf", "-inf"]
    _chunked_csv(_table_trajectory(table))


def test_csv_chunks_write_a_non_finite_chunk_between_finite_ones_as_repr_does():
    # only the middle chunk is dumped as a list with repr's strings
    table = np.tile(np.linspace(-1.0, 1.0, 22), (3 * CHUNK_STEPS, 1))
    table[CHUNK_STEPS + 7, 3] = math.nan
    lines = _chunked_csv(_table_trajectory(table)).splitlines()
    assert lines[1:] == _repr_rows(table)
    assert lines[CHUNK_STEPS + 8].split(",")[3] == "nan"


def test_csv_chunks_spell_a_band_value_in_the_last_chunk_as_repr_does():
    # only the last chunk is dumped as a list with repr's strings
    table = np.tile(np.linspace(0.5, 2.0, 22), (2 * CHUNK_STEPS + 3, 1))
    table[-1, 5] = -1.5e-5
    lines = _chunked_csv(_table_trajectory(table)).splitlines()
    assert lines[1:] == _repr_rows(table)
    assert lines[-1].split(",")[5] == "-1.5e-05"


@pytest.mark.parametrize("records", [1, CHUNK_STEPS, CHUNK_STEPS + 1, 3 * CHUNK_STEPS + 5])
def test_trajectory_csv_matches_repr_across_chunks(records):
    # between them the rows hold all three spellings orjson writes otherwise than repr
    if records == 1:
        traj = _table_trajectory(np.linspace(-2e-5, 3e16, 22)[None, :])
    else:  # steps 0 .. records - 1
        traj = evolve(IntegratorConfig(dt=1e-3, t_end=(records - 1) * 1e-3, omega=0.5,
                                       q0=1e-7, p0=3e-7, params=MuParams(np.linspace(-1, 1, 8))))
    assert len(traj) == records
    assert list(trajectory_csv_lines(traj)) == _repr_csv(traj)
    _chunked_csv(traj)
