import json
import math
import time
import warnings

import numpy as np
import numpy.testing as npt
import pytest

from operlax import (
    DimensionMismatchError,
    evaluate,
    identity_operation,
    make_operation,
    operation_from_dict,
    operation_to_dict,
)


def test_zero_binary_operation():
    f = make_operation(2, 2, np.zeros(8))
    assert f.dim == 2 and f.arity == 2 and f.reduced_degree == 1
    npt.assert_array_equal(f.coeffs, np.zeros(8))
    npt.assert_array_equal(evaluate(f, [np.ones(2), np.ones(2)]), np.zeros(2))


def test_dim1_binary_is_a_scalar():
    f = make_operation(1, 2, [2.0])
    npt.assert_array_equal(evaluate(f, [[3.0], [4.0]]), [24.0])


def test_rotation_generator_coeffs():
    m = make_operation(2, 1, [0.0, -0.5, 0.5, 0.0])
    npt.assert_array_equal(m.tensor, [[0.0, -0.5], [0.5, 0.0]])


def test_coefficient_length_must_match():
    with pytest.raises(DimensionMismatchError):
        make_operation(2, 2, np.zeros(7))
    with pytest.raises(DimensionMismatchError):
        make_operation(3, 1, np.zeros(8))


@pytest.mark.parametrize("arity", [10 ** 5, 10 ** 8])
def test_coefficient_count_check_builds_no_huge_int(arity):
    # dim ** (arity + 1) in full has arity + 1 bits, and its decimal message past 4300
    # digits was a plain ValueError from int-to-string conversion
    best = math.inf
    for _ in range(3):
        started = time.perf_counter()
        with pytest.raises(DimensionMismatchError, match=rf"dim=2, arity={arity}, got 4$"):
            make_operation(2, arity, [1, 2, 3, 4])
        best = min(best, time.perf_counter() - started)
    assert best < 0.01


def test_dim_and_arity_must_be_ints():
    # 2.0 and True compare with 1, but no tensor has a float or bool dimension
    for dim, arity, coeffs in ((2.0, 1, [1, 0, 0, 1]), (True, 1, [2.0]), ("2", 1, [1, 0, 0, 1]),
                               (2, 1.0, [1, 0, 0, 1]), (1, True, [2.0]), (0, 1, [])):
        with pytest.raises(DimensionMismatchError):
            make_operation(dim, arity, coeffs)
    f = make_operation(np.int64(2), np.int32(1), [1, 0, 0, 1])
    assert operation_to_dict(operation_from_dict({"dim": 2.0, "arity": 1, "coeffs": f.coeffs})) \
        == {"dim": 2, "arity": 1, "coeffs": [1.0, 0.0, 0.0, 1.0]}


def test_nonfinite_coefficients_rejected():
    with pytest.raises(ValueError):
        make_operation(2, 1, [0.0, np.nan, 0.0, 1.0])
    with pytest.raises(ValueError):
        make_operation(1, 1, [np.inf])


def test_identity_operation():
    npt.assert_array_equal(identity_operation(2).tensor, np.eye(2))
    npt.assert_array_equal(identity_operation(1).coeffs, [1.0])
    rng = np.random.default_rng(5)
    x = rng.uniform(-1, 1, 3)
    npt.assert_array_equal(evaluate(identity_operation(3), [x]), x)


def test_evaluate_basis_structure_constants():
    # only mu^1_11 = 1: e1*e1 = e1, everything else 0
    coeffs = np.zeros(8)
    coeffs[0] = 1.0
    mu = make_operation(2, 2, coeffs)
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    npt.assert_array_equal(evaluate(mu, [e1, e1]), e1)
    npt.assert_array_equal(evaluate(mu, [e1, e2]), np.zeros(2))
    npt.assert_array_equal(evaluate(mu, [e2, e2]), np.zeros(2))


def test_evaluate_argument_validation():
    f = make_operation(2, 2, np.zeros(8))
    with pytest.raises(DimensionMismatchError):
        evaluate(f, [np.ones(2)])
    with pytest.raises(DimensionMismatchError):
        evaluate(f, [np.ones(3), np.ones(3)])
    with pytest.raises(ValueError):
        evaluate(f, [np.array([1.0, np.nan]), np.ones(2)])


def test_evaluate_overflow_raises_without_warning():
    # unguarded, numpy warns on stderr and the contraction returns [inf inf]
    f = make_operation(2, 2, [1e200] * 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            evaluate(f, [[1e200, 1e200], [1.0, 1.0]])


def test_evaluate_multilinearity():
    rng = np.random.default_rng(42)
    for _ in range(30):
        d = int(rng.integers(1, 4))
        n = int(rng.integers(1, 4))
        f = make_operation(d, n, rng.uniform(-1, 1, d ** (n + 1)))
        slot = int(rng.integers(0, n))
        args = [rng.uniform(-1, 1, d) for _ in range(n)]
        x, y = rng.uniform(-1, 1, d), rng.uniform(-1, 1, d)
        a, b = rng.uniform(-1, 1, 2)
        mixed = list(args)
        mixed[slot] = a * x + b * y
        lhs = evaluate(f, mixed)
        ax = list(args)
        ax[slot] = x
        by = list(args)
        by[slot] = y
        rhs = a * evaluate(f, ax) + b * evaluate(f, by)
        npt.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


def test_coefficient_roundtrip_is_bit_exact():
    rng = np.random.default_rng(7)
    coeffs = rng.uniform(-1, 1, 27)
    f = make_operation(3, 2, coeffs)
    npt.assert_array_equal(f.coeffs, coeffs)
    assert not f.coeffs.flags.writeable


def test_combine_evaluate_distributes():
    rng = np.random.default_rng(9)
    f = make_operation(2, 2, rng.uniform(-1, 1, 8))
    g = make_operation(2, 2, rng.uniform(-1, 1, 8))
    args = [rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 2)]
    a, b = 0.7, -1.3
    lhs = evaluate(make_operation(2, 2, a * f.coeffs + b * g.coeffs), args)
    rhs = a * evaluate(f, args) + b * evaluate(g, args)
    npt.assert_allclose(lhs, rhs, atol=1e-12, rtol=0)


def test_json_dict_roundtrip():
    rng = np.random.default_rng(3)
    f = make_operation(2, 2, rng.uniform(-1, 1, 8))
    obj = operation_to_dict(f)
    assert obj["dim"] == 2 and obj["arity"] == 2
    assert all(isinstance(v, float) for v in obj["coeffs"])
    back = operation_from_dict(obj)
    npt.assert_array_equal(back.coeffs, f.coeffs)
    with pytest.raises(ValueError):
        operation_from_dict({"dim": 2, "coeffs": [1.0]})


def test_numpy_int_sizes_are_stored_as_ints():
    # a numpy int64 dim once reached operation_to_dict, which json.dumps refused
    f = make_operation(np.int64(2), np.int32(1), [1, 0, 0, 1])
    assert type(f.dim) is int and type(f.arity) is int
    text = json.dumps(operation_to_dict(f))
    back = operation_from_dict(json.loads(text))
    assert (back.dim, back.arity) == (2, 1)
    assert back.coeffs.tobytes() == f.coeffs.tobytes()
