import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from operlax import (
    DimensionMismatchError,
    check_composition_relations,
    check_graded_jacobi,
    check_unit_laws,
    evaluate,
    gerstenhaber_bracket,
    identity_operation,
    make_operation,
    operad_law_suite,
    partial_compose,
    pde_suite,
    proof_identity_suite,
    random_operation,
    theorem_suite,
    total_compose,
    trial_rng,
)
from operlax import calculus, cli
from operlax.calculus import (
    TRIAL_BLOCK,
    _bracket,
    _compose,
    _operad_draws,
    _operad_rows,
    _seed_words,
    _sign,
    _trial_raws,
    _worst_case_reports,
)


def rand_op(rng, d, n):
    return random_operation(rng, d, n)


def test_partial_compose_unit_left_and_right():
    rng = trial_rng(0, 0)
    f = rand_op(rng, 2, 2)
    unit = identity_operation(2)
    npt.assert_array_equal(partial_compose(unit, f, 0).coeffs, f.coeffs)
    for i in range(f.arity):
        npt.assert_array_equal(partial_compose(f, unit, i).coeffs, f.coeffs)


def test_partial_compose_scalar_sign_rule():
    f = make_operation(1, 2, [2.0])
    g = make_operation(1, 2, [3.0])
    left = partial_compose(f, g, 0)
    right = partial_compose(f, g, 1)
    assert left.arity == 3 and right.arity == 3
    npt.assert_array_equal(left.coeffs, [6.0])
    npt.assert_array_equal(right.coeffs, [-6.0])  # sign (-1)^(1*1)


def test_partial_compose_arity1_is_matrix_product():
    rng = trial_rng(0, 1)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        f = rand_op(rng, d, 1)
        g = rand_op(rng, d, 1)
        comp = partial_compose(f, g, 0)
        npt.assert_allclose(comp.tensor, f.tensor @ g.tensor, atol=1e-14, rtol=0)


def test_partial_compose_slot_range():
    f = make_operation(2, 2, np.zeros(8))
    g = identity_operation(2)
    with pytest.raises(IndexError):
        partial_compose(f, g, 2)
    with pytest.raises(IndexError):
        partial_compose(f, g, -1)
    with pytest.raises(DimensionMismatchError):
        partial_compose(f, identity_operation(3), 0)


@pytest.mark.parametrize("i", [True, False, 1.0, "1", None, np.float64(0.0)])
def test_partial_compose_slot_must_be_an_int(i):
    # a bool is neither a number nor an int: True once composed into slot 1
    f = make_operation(2, 2, np.arange(8.0))
    with pytest.raises(ValueError, match="slot i must be an int"):
        partial_compose(f, identity_operation(2), i)


def test_partial_compose_takes_a_numpy_int_slot():
    f, g = make_operation(2, 2, np.arange(8.0)), random_operation(np.random.default_rng(3), 2, 2)
    npt.assert_array_equal(partial_compose(f, g, np.int64(1)).coeffs,
                           partial_compose(f, g, 1).coeffs)


def test_total_compose_scalar_cancellation():
    f = make_operation(1, 2, [2.0])
    g = make_operation(1, 2, [3.0])
    npt.assert_array_equal(total_compose(f, g).coeffs, [0.0])


def test_total_compose_arity1_single_term():
    rng = trial_rng(0, 2)
    f, g = rand_op(rng, 3, 1), rand_op(rng, 3, 1)
    npt.assert_allclose(total_compose(f, g).tensor, f.tensor @ g.tensor, atol=1e-14, rtol=0)


def test_total_compose_with_unit_counts_slots():
    rng = trial_rng(0, 3)
    f = rand_op(rng, 2, 2)
    # one +f term per slot, so f*unit = deg(f) * f for a binary f
    npt.assert_allclose(total_compose(f, identity_operation(2)).coeffs, 2.0 * f.coeffs,
                        atol=1e-15, rtol=0)


def test_bracket_of_matrices_is_commutator():
    f = make_operation(2, 1, [0.0, 1.0, 0.0, 0.0])
    g = make_operation(2, 1, [0.0, 0.0, 1.0, 0.0])
    npt.assert_array_equal(gerstenhaber_bracket(f, g).tensor, [[1.0, 0.0], [0.0, -1.0]])


def test_bracket_with_unit_scales_by_reduced_degree():
    rng = trial_rng(0, 4)
    unit = identity_operation(2)
    f2 = rand_op(rng, 2, 2)
    npt.assert_allclose(gerstenhaber_bracket(f2, unit).coeffs, f2.coeffs, atol=1e-15, rtol=0)
    f3 = rand_op(rng, 2, 3)
    npt.assert_allclose(gerstenhaber_bracket(f3, unit).coeffs, 2.0 * f3.coeffs, atol=1e-15, rtol=0)


def test_bracket_rotation_with_basis_mu():
    # M for omega = 1 against mu with only mu^1_11 = 1: three half-strength entries
    m = make_operation(2, 1, [0.0, -0.5, 0.5, 0.0])
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    mu = make_operation(2, 2, coeffs)
    expected = np.zeros(8)
    expected[1] = expected[2] = expected[4] = 0.5  # mu_112, mu_121, mu_211
    npt.assert_allclose(gerstenhaber_bracket(m, mu).coeffs, expected, atol=1e-15, rtol=0)


def test_composition_relations_random_triples():
    rng = trial_rng(1, 0)
    rep = check_composition_relations(rand_op(rng, 2, 2), rand_op(rng, 2, 2),
                                      rand_op(rng, 2, 2), tol=1e-10)
    assert rep.passed and rep.max_abs_residual <= 1e-10


def test_composition_relations_identity_triple():
    unit = identity_operation(2)
    rep = check_composition_relations(unit, unit, unit, tol=1e-15)
    assert rep.max_abs_residual == 0.0


def test_composition_relations_matrix_associativity():
    rng = trial_rng(1, 1)
    rep = check_composition_relations(rand_op(rng, 3, 1), rand_op(rng, 3, 1),
                                      rand_op(rng, 3, 1), tol=1e-13)
    assert rep.passed


def test_graded_jacobi():
    rng = trial_rng(1, 2)
    rep = check_graded_jacobi(rand_op(rng, 2, 2), rand_op(rng, 2, 2), rand_op(rng, 2, 2),
                              tol=1e-10)
    assert rep.passed

    unit = identity_operation(2)
    assert check_graded_jacobi(unit, unit, unit, tol=1e-15).max_abs_residual == 0.0

    rep = check_graded_jacobi(rand_op(rng, 2, 1), rand_op(rng, 2, 2), rand_op(rng, 2, 3),
                              tol=1e-10)
    assert rep.passed


def test_law_checks_take_tol_by_the_suites_rule():
    # NaN and -1.0 once gave failing reports, True a passing one, None a TypeError
    unit = identity_operation(2)
    for tol in (math.nan, -1.0, True, None):
        for check, ops in ((check_unit_laws, [unit]), (check_graded_jacobi, [unit] * 3),
                           (check_composition_relations, [unit] * 3)):
            with pytest.raises(ValueError, match="tol must be a number > 0"):
                check(*ops, tol=tol)


def _operations(dim):
    # any arity <= 3, coefficients anywhere in [-1, 1]
    return st.integers(1, 3).flatmap(lambda n: arrays(
        np.float64, dim ** (n + 1), elements=st.floats(-1.0, 1.0)).map(
        lambda coeffs: make_operation(dim, n, coeffs)))


# three operations on one space of dimension <= 3
_TRIPLES = st.integers(1, 3).flatmap(lambda d: st.tuples(*[_operations(d)] * 3))
_LARGEST = tuple(random_operation(trial_rng(1, 7), 3, 3) for _ in range(3))


@settings(derandomize=True, database=None, deadline=None)
@given(_TRIPLES)
@example(_LARGEST)
def test_composition_relations_hold_for_all_operations(ops):
    rep = check_composition_relations(*ops, tol=1e-10)
    assert rep.passed, rep.max_abs_residual


@settings(derandomize=True, database=None, deadline=None)
@given(_TRIPLES)
@example(_LARGEST)
def test_graded_jacobi_holds_for_all_operations(ops):
    rep = check_graded_jacobi(*ops, tol=1e-10)
    assert rep.passed, rep.max_abs_residual


def _compose_reference(f, g, i):
    # g into slot i of f as a general tensor contraction
    m, n = f.arity, g.arity
    tmp = np.tensordot(f.tensor, g.tensor, axes=([1 + i], [0]))
    res = np.moveaxis(tmp, list(range(m, m + n)), list(range(1 + i, 1 + i + n)))
    return (-1.0 if i * (n - 1) % 2 else 1.0) * res.reshape(-1)


_PAIRS = st.integers(1, 3).flatmap(lambda d: st.tuples(*[_operations(d)] * 2))


@settings(derandomize=True, database=None, deadline=None)
@given(_PAIRS)
@example(_LARGEST[:2])
def test_compose_kernel_matches_tensordot(ops):
    f, g = ops
    for i in range(f.arity):
        got = _compose(f.dim, f.coeffs, f.arity, g.coeffs, g.arity, i)
        assert np.max(np.abs(got - _compose_reference(f, g, i))) <= 1e-14


def test_law_checks_raise_when_an_intermediate_overflows():
    # every coefficient is finite, but a product of three of them is not
    rng = trial_rng(6, 0)
    h, f, g = (make_operation(2, n, rng.uniform(-1.0, 1.0, size=2 ** (n + 1)) * 1e150)
               for n in (2, 3, 2))
    # the caller's numpy error state would raise on overflow: each entry point
    # keeps numpy quiet and raises its own ValueError instead
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            check_composition_relations(h, f, g, tol=1e-10)
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            check_graded_jacobi(h, f, g, tol=1e-10)
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            partial_compose(partial_compose(h, f, 0), g, 0)
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            total_compose(total_compose(h, f), g)
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            gerstenhaber_bracket(gerstenhaber_bracket(h, f), g)


def test_unit_laws_are_exact():
    rng = trial_rng(1, 3)
    assert check_unit_laws(identity_operation(4), tol=1e-15).max_abs_residual == 0.0
    assert check_unit_laws(rand_op(rng, 3, 2), tol=1e-15).max_abs_residual == 0.0
    assert check_unit_laws(rand_op(rng, 2, 3), tol=1e-15).max_abs_residual == 0.0


def _compose_evaluate_residual(f, g, i, trials, seed=0):
    """Worst gap between evaluate(f o_i g, args) and the signed value of f with
    g applied to its i-th argument block, over random argument tuples: the
    oracle tying the coefficient formulas to the definition."""
    rng = trial_rng(seed, 0)
    comp = partial_compose(f, g, i)
    sign = -1.0 if (i * g.reduced_degree) % 2 else 1.0
    worst = 0.0
    for _ in range(trials):
        args = [rng.uniform(-1.0, 1.0, size=f.dim) for _ in range(comp.arity)]
        inner = evaluate(g, args[i : i + g.arity])
        rhs = sign * evaluate(f, args[:i] + [inner] + args[i + g.arity :])
        worst = max(worst, float(np.max(np.abs(evaluate(comp, args) - rhs))))
    return worst


def test_compose_evaluate_consistency():
    rng = trial_rng(1, 4)
    f, g = rand_op(rng, 2, 2), rand_op(rng, 2, 2)
    assert _compose_evaluate_residual(f, g, 1, trials=50) <= 1e-12

    unit = identity_operation(2)
    assert _compose_evaluate_residual(f, unit, 0, trials=10) == 0.0

    f1 = make_operation(1, 2, [2.0])
    g1 = make_operation(1, 2, [3.0])
    assert _compose_evaluate_residual(f1, g1, 0, trials=5) <= 1e-13
    ones = [np.array([1.0])] * 3
    npt.assert_array_equal(evaluate(partial_compose(f1, g1, 0), ones), [6.0])


def test_graded_antisymmetry():
    rng = trial_rng(1, 5)
    for _ in range(40):
        d = int(rng.integers(1, 4))
        f = rand_op(rng, d, int(rng.integers(1, 4)))
        g = rand_op(rng, d, int(rng.integers(1, 4)))
        sign = -1.0 if (f.reduced_degree * g.reduced_degree) % 2 else 1.0
        lhs = gerstenhaber_bracket(f, g).coeffs
        rhs = -sign * gerstenhaber_bracket(g, f).coeffs
        assert np.max(np.abs(lhs - rhs)) <= 1e-13


def test_degree_bookkeeping():
    rng = trial_rng(1, 6)
    for _ in range(20):
        d = int(rng.integers(1, 4))
        nf, ng = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        f, g = rand_op(rng, d, nf), rand_op(rng, d, ng)
        assert partial_compose(f, g, 0).arity == nf + ng - 1
        assert total_compose(f, g).arity == nf + ng - 1
        assert gerstenhaber_bracket(f, g).arity == nf + ng - 1


def test_operad_law_suite_tie_names_last_trial():
    # the unit laws hold exactly, so every trial ties at 0.0
    reports = {r.law_name: r for r in operad_law_suite(trials=20, seed=0, tol=1e-10)}
    assert (reports["unit-laws"].max_abs_residual, reports["unit-laws"].worst_case_seed) == (0.0, 19)
    assert {(r.max_abs_residual, r.worst_case_seed) for r in operad_law_suite(0, 0, 1e-10)} == {
        (0.0, -1)}


def test_operad_law_suite_reports():
    reports = operad_law_suite(trials=30, seed=42, tol=1e-10)
    names = [r.law_name for r in reports]
    assert names == ["antisymmetry", "composition-relations", "graded-jacobi", "unit-laws"]
    for r in reports:
        assert r.passed and r.trials == 30 and 0 <= r.worst_case_seed < 30
        d = r.to_dict()
        assert set(d) == {"law", "trials", "max_abs_residual", "pass", "seed"}


# The three triple-law kernels as they were before the suite shared their slot
# compositions: the one-trial reference for calculus._triple_laws.
def _antisymmetry(d, f, m, g, n):
    return [_bracket(d, f, m, g, n) + _sign((m - 1) * (n - 1)) * _bracket(d, g, n, f, m)]


def _composition_relations(d, h, l, f, m, g, n):
    sgn = _sign((m - 1) * (n - 1))
    hg = [_compose(d, h, l, g, n, j) for j in range(l)]
    fg = [_compose(d, f, m, g, n, j) for j in range(m)]
    for i in range(l):
        hf = _compose(d, h, l, f, m, i)
        for j in range(l + m - 1):
            if j < i:
                rhs = sgn * _compose(d, hg[j], l + n - 1, f, m, i + n - 1)
            elif j < i + m:
                rhs = _compose(d, h, l, fg[j - i], m + n - 1, i)
            else:
                rhs = sgn * _compose(d, hg[j - m + 1], l + n - 1, f, m, i)
            yield _compose(d, hf, l + m - 1, g, n, j) - rhs


def _graded_jacobi(d, f, m, g, n, h, l):
    cyclic = ((f, m, g, n, h, l), (g, n, h, l, f, m), (h, l, f, m, g, n))
    return [sum(_sign((p - 1) * (r - 1)) * _bracket(d, _bracket(d, a, p, b, q), p + q - 1, c, r)
                for a, p, b, q, c, r in cyclic)]


def _worst(diffs):
    return max(float(np.max(np.abs(x))) for x in diffs)


def _one_trial_rows(seed, trials, tol=1e-10):
    """Oracle: each trial's four residuals through the reference kernels and the
    public unit-law check, drawn from the trial's stream in the suite's order."""
    rows, signatures = [], set()
    for k in range(trials):
        rng = trial_rng(seed, k)
        d = int(rng.integers(1, 4))
        h, f, g = ops = [random_operation(rng, d, int(rng.integers(1, 4))) for _ in range(3)]
        (hc, l), (fc, m), (gc, n) = ((op.coeffs, op.arity) for op in ops)
        rows.append([_worst(_antisymmetry(d, fc, m, gc, n)),
                     _worst(_composition_relations(d, hc, l, fc, m, gc, n)),
                     _worst(_graded_jacobi(d, fc, m, gc, n, hc, l)),
                     max(check_unit_laws(op, tol).max_abs_residual for op in ops)])
        # the public checks read their columns of the shared kernel
        assert [check_composition_relations(h, f, g, tol).max_abs_residual,
                check_graded_jacobi(f, g, h, tol).max_abs_residual] == rows[-1][1:3]
        signatures.add((d, h.arity, f.arity, g.arity))
    return rows, signatures


def test_operad_law_suite_rows_match_one_trial_checks():
    rows, signatures = _one_trial_rows(seed=3, trials=400)
    assert len(signatures) == 3 ** 4  # every (d, l, m, n) with d and arities in 1..3
    assert _operad_rows(3, range(400)).tolist() == rows  # bit for bit, one block of 400
    names = ["antisymmetry", "composition-relations", "graded-jacobi", "unit-laws"]
    assert operad_law_suite(400, 3, 1e-10) == _table_reports(rows, 1e-10, names)


def test_operad_rows_do_not_depend_on_the_block():
    block = _operad_rows(11, range(TRIAL_BLOCK))
    for k in range(TRIAL_BLOCK):
        npt.assert_array_equal(_operad_rows(11, range(k, k + 1))[0], block[k])


def test_operad_law_suite_memory_stays_near_one_trial():
    # groups whose widest intermediates would pass STACK_COEFFS are split: stacking
    # every dim-3, arity-3 triple of a block at once peaked at 1.55 MiB on this seed
    operad_law_suite(TRIAL_BLOCK, 7, 1e-10)
    tracemalloc.start()
    try:
        operad_law_suite(TRIAL_BLOCK, 7, 1e-10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 20


def test_operad_law_suite_raises_when_an_intermediate_overflows(monkeypatch, capsys):
    draw = calculus._draw_coeffs

    def huge(rng, dim, arity):  # finite coefficients whose triple products overflow
        return draw(rng, dim, arity) * 1e150

    monkeypatch.setattr(calculus, "_draw_coeffs", huge)
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match="coefficients must all be finite"):
            operad_law_suite(20, 0, 1e-10)
    assert cli.main(["verify", "operad", "--trials", "20"]) == 2
    err = capsys.readouterr().err
    assert "coefficients must all be finite" in err and "Warning" not in err


def _table_reports(rows, tol=1e-10, names=("x",)):
    """_worst_case_reports over a table of rows, one per trial, read by range."""
    table = np.reshape(np.array(rows, dtype=float), (-1, len(names)))
    return _worst_case_reports(list(names), len(table), lambda ks: table[ks.start:ks.stop], tol)


def test_worst_case_nan_outranks_later_numbers():
    (rep,) = _table_reports([(1e-20,), (math.nan,), (1e-20,)])
    assert math.isnan(rep.max_abs_residual) and rep.worst_case_seed == 1 and not rep.passed


def test_non_finite_residual_is_null_in_strict_json():
    def reject(token):
        raise ValueError(f"{token} is not strict JSON")

    for bad in (math.nan, math.inf):
        (rep,) = _table_reports([(1e-20,), (bad,)])
        obj = json.loads(json.dumps(rep.to_dict()), parse_constant=reject)
        assert obj == {"law": "x", "trials": 2, "max_abs_residual": None, "pass": False, "seed": 1}
    (rep,) = _table_reports([(1e-20,)])
    assert json.dumps(rep.to_dict()) == ('{"law": "x", "trials": 1, "max_abs_residual": 1e-20, '
                                         '"pass": true, "seed": 0}')


def test_worst_case_nan_only_rows():
    (rep,) = _table_reports([(math.nan,)])
    assert math.isnan(rep.max_abs_residual) and rep.worst_case_seed == 0 and not rep.passed
    (rep,) = _table_reports([(math.nan,), (math.nan,)])
    assert rep.worst_case_seed == 1  # a tie still names the last trial


def test_worst_case_blocks_reduce_as_rows(monkeypatch):
    # a trial's row does not depend on its block, so neither do the suites' reports
    suites = [lambda: operad_law_suite(7, 3, 1e-10), lambda: proof_identity_suite(9, 3, 1e-12),
              lambda: pde_suite(5, 3, 1e-8), lambda: theorem_suite(7, 3, 1e-6, t_end=0.5)]
    reports = {}
    for block in (256, 1, 2, 3):
        monkeypatch.setattr(calculus, "TRIAL_BLOCK", block)
        reports[block] = [suite() for suite in suites]
    assert reports[1] == reports[2] == reports[3] == reports[256]
    assert [len(r) for r in reports[256]] == [4, 6, 2, 28]


@settings(derandomize=True, database=None, deadline=None)
@given(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1e-20, 1.0, math.nan]),
                         min_size=2, max_size=2), max_size=12),
       st.integers(1, 13))
def test_worst_case_reports_do_not_depend_on_the_block(rows, block):
    # blocks of any size give the reports of one row at a time
    names = ["x", "y"]
    with mock.patch.object(calculus, "TRIAL_BLOCK", 1):
        by_row = _table_reports(rows, 0.5, names)
    with mock.patch.object(calculus, "TRIAL_BLOCK", block):
        by_block = _table_reports(rows, 0.5, names)
    assert [r.to_dict() for r in by_block] == [r.to_dict() for r in by_row]
    for r in by_block:
        assert type(r.max_abs_residual) is float and type(r.passed) is bool
        assert type(r.worst_case_seed) is int and r.trials == len(rows)
    if not rows:
        assert all(r.max_abs_residual == 0.0 and r.worst_case_seed == -1 for r in by_block)


@pytest.mark.parametrize("dim, arity", [(2.5, 2), (-1, 2), (True, 2), (2, 10 ** 8)])
def test_random_operation_checks_dim_and_arity_before_it_draws(dim, arity):
    # by Operation's rule, and with no int of 10**8 bits for the coefficient count
    rng = trial_rng(0, 0)
    state = rng.bit_generator.state
    with pytest.raises(DimensionMismatchError):
        random_operation(rng, dim, arity)
    assert rng.bit_generator.state == state


def test_trial_rng_streams_are_pinned():
    # the documented streams: a numpy upgrade that moves them must fail here
    raw = trial_rng(0, 0).bit_generator.random_raw(4).tolist()
    assert raw == [11749869230777074271, 4976686463289251617,
                   755828109848996024, 304881062738325533]
    raw = trial_rng(2 ** 64 - 1, 7).bit_generator.random_raw(4).tolist()
    assert raw == [4696158722821015869, 4467627061321404329,
                   6945900605597639409, 18423593296267932764]


def _operad_reference(rng):
    # integers reads PCG64's buffered upper 32 bits between uniform calls
    d = int(rng.integers(1, 4))
    ops = []
    for _ in range(3):
        a = int(rng.integers(1, 4))
        ops.append((rng.uniform(-1.0, 1.0, d ** (a + 1)).tolist(), a))
    return (d, *ops)


_SEEDS = (st.sampled_from([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64])
          | st.integers(0, 2 ** 64 - 1))
_FIRSTS = st.sampled_from([0, 1, 255, 256, 300, 2 ** 32 - 3, 2 ** 32]) | st.integers(0, 2 ** 32)


@settings(derandomize=True, database=None, deadline=None)
@given(_SEEDS, _FIRSTS, st.integers(0, 6))
@example(seed=0, first=0, count=1)
@example(seed=2 ** 64 - 1, first=TRIAL_BLOCK - 2, count=4)
def test_operad_draws_equal_trial_rng(seed, first, count):
    ks = range(first, first + count)
    drawn = [(d, *[(c.tolist(), a) for c, a in ops]) for d, *ops in _operad_draws(seed, ks)]
    assert drawn == [_operad_reference(trial_rng(seed, k)) for k in ks]


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 5, 2 ** 64 - 1, 2 ** 64, 2 ** 70 + 3])
@pytest.mark.parametrize("ks", [range(0, 3), range(2 ** 32 - 3, 2 ** 32),
                                range(2 ** 32 - 1, 2 ** 32 + 1), range(2 ** 32, 2 ** 32 + 2)])
def test_seed_words_equal_seed_sequence(seed, ks):
    # the one-array hash where the seed and the indices fit it, SeedSequence elsewhere
    words = _seed_words(seed, ks)
    assert words.dtype == np.uint64 and words.shape == (len(ks), 4)
    assert words.tolist() == [np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
                              .tolist() for k in ks]


@pytest.mark.parametrize("seed", [0, 2 ** 32 + 5, 2 ** 64 - 1])
@pytest.mark.parametrize("first", [0, 300, 2 ** 32 - 4])  # the last index is 2**32 - 1
@pytest.mark.parametrize("count", [0, 1, 12])
def test_trial_raws_equal_random_raw(seed, first, count):
    ks = range(first, first + 4)
    raws = _trial_raws(seed, ks, count)
    assert raws.dtype == np.uint64 and raws.shape == (4, count)
    assert raws.tolist() == [trial_rng(seed, k).bit_generator.random_raw(count).tolist()
                             for k in ks]


def test_trial_raws_take_any_seed_and_index():
    # SeedSequence's own words past the one-array hash: a seed past 64 bits, and
    # indices on both sides of 2**32
    for seed, ks in ((2 ** 64, range(3)), (0, range(2 ** 32 - 2, 2 ** 32 + 2)),
                     (2 ** 70 + 3, range(2 ** 32 - 1, 2 ** 32 + 1))):
        assert _trial_raws(seed, ks, 2).tolist() == [
            trial_rng(seed, k).bit_generator.random_raw(2).tolist() for k in ks]
    assert _trial_raws(0, range(5, 5), 3).shape == (0, 3)


_SUITES = [
    lambda trials, seed: operad_law_suite(trials, seed, 1e-10),
    lambda trials, seed: proof_identity_suite(trials, seed, 1e-10),
    lambda trials, seed: pde_suite(trials, seed, 1e-6),
    lambda trials, seed: theorem_suite(trials, seed, 1e-6, t_end=0.5),
]


@pytest.mark.parametrize("seed, error, message", [
    (-1, ValueError, "expected non-negative integer"),
    (np.int64(-3), ValueError, "expected non-negative integer"),
    (1.5, TypeError, "seed must be integer"),
])
@pytest.mark.parametrize("suite", _SUITES)
def test_suites_reject_bad_seeds_as_seed_sequence_does(suite, seed, error, message):
    # every seed that SeedSequence refuses, the suites refuse by their own seed rule
    with pytest.raises(error, match=message):
        np.random.SeedSequence([seed, 0])
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        suite(3, seed)


@pytest.mark.parametrize("seed", [None, 1.5, True, np.bool_(True), "x", -1, np.int64(-3)])
@pytest.mark.parametrize("trials", [0, 1])
@pytest.mark.parametrize("suite", _SUITES)
def test_suites_check_the_seed_before_any_draw(suite, trials, seed):
    with pytest.raises(ValueError, match="seed must be an int >= 0"):
        suite(trials, seed)


@pytest.mark.parametrize("suite", _SUITES)
def test_suites_take_seeds_past_64_bits(suite):
    # SeedSequence takes these in more words: 2**64 and 2**100 through _seed_words'
    # call of SeedSequence itself, 2**64 - 1 as two words through its one-array hash
    for seed in (2 ** 64, 2 ** 100, np.uint64(2 ** 64 - 1)):
        reports = suite(2, seed)
        assert reports and all(isinstance(r.worst_case_seed, int) for r in reports)
