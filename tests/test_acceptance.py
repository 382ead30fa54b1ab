"""Acceptance suite: every release gate at its pinned tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS/FAIL line per
criterion.  Budgets and tolerances are fixed here, not configurable.
"""

import time

import numpy as np
import pytest

from operlax import (
    IntegratorConfig,
    MuParams,
    operad_law_suite,
    operadic_lax_rhs,
    pde_suite,
    proof_identity_suite,
    random_operation,
    rk4_order_check,
    structure_constant_rhs,
    theorem_suite,
    trial_rng,
)

SEED_OPERAD = 101
SEED_BRACKET = 102
SEED_THEOREM = 103
SEED_IDENTITIES = 104
SEED_PDE = 105


def _criterion(num, name, ok, detail):
    print(f"criterion {num} ({name}): {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


@pytest.fixture(scope="module")
def theorem_run():
    started = time.monotonic()
    reports = theorem_suite(20, seed=SEED_THEOREM, tol=1e-6, dt=1e-3, t_end=20.0)
    elapsed = time.monotonic() - started
    return reports, elapsed


def test_criterion_1_operad_laws():
    started = time.monotonic()
    reports = operad_law_suite(trials=200, seed=SEED_OPERAD, tol=1e-10)
    elapsed = time.monotonic() - started
    worst = max(r.max_abs_residual for r in reports)
    ok = all(r.passed for r in reports) and elapsed <= 10.0
    _criterion(1, "operad law suite", ok,
               f"200 triples, worst residual {worst:.3e} (tol 1e-10), {elapsed:.2f}s")


def test_criterion_2_bracket_equals_index_formula():
    started = time.monotonic()
    worst = 0.0
    for d in (2, 3):
        for k in range(100):
            rng = trial_rng(SEED_BRACKET, 1000 * d + k)
            mu = random_operation(rng, d, 2)
            m = random_operation(rng, d, 1)
            diff = operadic_lax_rhs(mu, m).coeffs - structure_constant_rhs(mu, m).coeffs
            worst = max(worst, float(np.max(np.abs(diff))))
    elapsed = time.monotonic() - started
    ok = worst <= 1e-13 and elapsed <= 1.0
    _criterion(2, "bracket/index-formula equivalence", ok,
               f"100 pairs per dim in {{2, 3}}, worst {worst:.3e} (tol 1e-13), {elapsed:.2f}s")


def test_criterion_3_trajectory_family_match(theorem_run):
    reports, elapsed = theorem_run
    mu_reports = [r for r in reports if r.law_name.startswith("trajectory-mu-")]
    drift_reports = [r for r in reports if r.law_name.startswith("energy-drift-")]
    assert len(mu_reports) == 20 and len(drift_reports) == 20
    worst_mu = max(r.max_abs_residual for r in mu_reports)
    worst_drift = max(r.max_abs_residual for r in drift_reports)
    ok = (all(r.passed for r in mu_reports) and all(r.passed for r in drift_reports)
          and elapsed <= 60.0)
    _criterion(3, "family tracks the flow", ok,
               f"20 runs to t=20 at dt=1e-3, worst mu err {worst_mu:.3e} (tol 1e-6), "
               f"worst drift {worst_drift:.3e} (tol 1e-9), {elapsed:.1f}s")


def test_criterion_4_pointwise_identities():
    started = time.monotonic()
    reports = proof_identity_suite(trials=1000, seed=SEED_IDENTITIES, tol=1e-12)
    elapsed = time.monotonic() - started
    worst = max(r.max_abs_residual for r in reports)
    ok = all(r.passed for r in reports) and elapsed <= 5.0
    _criterion(4, "pointwise identity suite", ok,
               f"1000 states, worst scaled residual {worst:.3e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_5_pde_residual():
    reports = pde_suite(n_states=100, seed=SEED_PDE, tol=1e-8)
    by_name = {r.law_name: r for r in reports}
    bound = by_name["pde-residual"]
    halving = by_name["pde-residual-halving"]
    ok = bound.passed and halving.passed
    _criterion(5, "PDE residual", ok,
               f"max residual {bound.max_abs_residual:.3e} (tol 1e-8) over 100 states, "
               f"halving factor within [3, 5] on the convergence probe "
               f"(outside-by {halving.max_abs_residual:.3f})")


def test_criterion_6_integrator_order():
    cfg = IntegratorConfig(dt=2e-3, t_end=10.0, omega=1.0, q0=0.0, p0=1.0,
                           params=MuParams.zeros())
    ratio = rk4_order_check(cfg)
    ok = 12.0 <= ratio <= 20.0
    _criterion(6, "integrator order", ok,
               f"error ratio e(dt)/e(dt/2) = {ratio:.2f}, expected in [12, 20]")


def test_criterion_7_isospectrality(theorem_run):
    reports, _ = theorem_run
    iso = [r for r in reports if r.law_name.startswith("isospectral-")]
    assert len(iso) == 20
    worst = max(r.max_abs_residual for r in iso)
    ok = all(r.passed for r in iso)
    _criterion(7, "isospectrality", ok,
               f"|det L + 2 H0| worst {worst:.3e} (tol 1e-8), trace L = 0 exactly, "
               f"every record of 20 runs")


def test_criterion_8_branch_antiperiodicity(theorem_run):
    reports, _ = theorem_run
    anti = [r for r in reports if r.law_name.startswith("antiperiodicity-")]
    assert len(anti) == 20
    worst = max(r.max_abs_residual for r in anti)
    ok = all(r.passed for r in anti)
    _criterion(8, "branch antiperiodicity", ok,
               f"mu(t + 2*pi/omega) = -mu(t), worst deviation {worst:.3e} (tol 1e-9)")
