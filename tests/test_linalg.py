"""Checks for the small dense complex linear algebra layer."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybgates.eightvertex import build_b_phi
from ybgates.linalg import (
    DimensionMismatchError,
    SingularMatrixError,
    dagger,
    expm,
    inverse,
    kron,
    residual,
    unitarity_residual,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def _random_matrix(rng, n=2, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


def test_kron_identity():
    assert np.array_equal(kron(I2, I2), I4)


def test_kron_pauli_pair():
    expected = np.array(
        [
            [0, 0, 0, -1j],
            [0, 0, 1j, 0],
            [0, -1j, 0, 0],
            [1j, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert residual(kron(SX, SY), expected) == 0.0


def test_kron_diagonal():
    assert np.array_equal(kron(SZ, I2), np.diag([1, 1, -1, -1]).astype(complex))


def test_kron_mixed_product():
    rng = np.random.default_rng(7)
    for _ in range(8):
        a, b, c, d = (_random_matrix(rng) for _ in range(4))
        assert residual(kron(a, b) @ kron(c, d), kron(a @ c, b @ d)) < 1e-12


_SHAPE_PAIRS = [
    ((2,), (2,)),
    ((4,), (2,)),
    ((2, 2), (2, 2)),
    ((4, 4), (2, 2)),
    ((3, 4, 4), (2, 2)),
    ((2, 2), (3, 4, 4)),
    ((64, 4, 4), (2, 2)),
    ((2,), (2, 2)),
    ((3, 1, 2), (2, 3)),
    ((), (2,)),
    ((0, 4), (2, 2)),
]


@given(pair=st.sampled_from(_SHAPE_PAIRS), seed=st.integers(0, 2**32 - 1))
def test_kron_bit_identical_to_numpy(pair, seed):
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in pair)
    got, expected = kron(a, b), np.kron(a, b)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@given(
    shape_a=st.lists(st.integers(1, 3), min_size=1, max_size=3),
    shape_b=st.lists(st.integers(1, 3), min_size=1, max_size=3),
)
def test_kron_matches_numpy_on_any_shapes(shape_a, shape_b):
    rng = np.random.default_rng(len(shape_a) * 10 + len(shape_b))
    a = rng.standard_normal(shape_a) + 1j * rng.standard_normal(shape_a)
    b = rng.standard_normal(shape_b)
    got, expected = kron(a, b), np.kron(a, b.astype(complex))
    assert got.dtype == complex
    assert got.shape == expected.shape
    assert np.array_equal(got, expected)


def test_kron_bilinear_and_associative():
    rng = np.random.default_rng(11)
    a, b, c = (_random_matrix(rng) for _ in range(3))
    assert residual(kron(2.0 * a + b, c), 2.0 * kron(a, c) + kron(b, c)) < 1e-12
    assert residual(kron(kron(a, b), c), kron(a, kron(b, c))) < 1e-12


def test_dagger_examples():
    assert np.array_equal(dagger(I4), I4)
    assert residual(dagger(SY), SY) == 0.0
    assert np.array_equal(dagger(np.diag([1, 1j])), np.diag([1, -1j]))


def test_dagger_involution_exact():
    rng = np.random.default_rng(3)
    a = _random_matrix(rng, n=4)
    assert np.array_equal(dagger(dagger(a)), a)


def test_inverse_identity():
    assert residual(inverse(I4), I4) == 0.0


def test_inverse_of_unitary_is_dagger():
    b = build_b_phi("-", 0.0)
    assert residual(inverse(b), dagger(b)) < 1e-12
    assert residual(b @ inverse(b), I4) < 1e-12


def test_inverse_singular():
    with pytest.raises(SingularMatrixError):
        inverse(np.zeros((4, 4), dtype=complex))


def test_inverse_stack_matches_each_matrix():
    stack = np.stack([build_b_phi(sign, phi) for sign in "+-" for phi in (0.0, 0.4, 2.9)])
    got = inverse(stack)
    assert got.shape == (6, 4, 4)
    for k in range(6):
        assert np.array_equal(got[k], inverse(stack[k]))


def test_inverse_stack_rejects_any_singular_matrix():
    stack = np.stack([I4, np.zeros((4, 4)), I4])
    with pytest.raises(SingularMatrixError):
        inverse(stack)


def test_expm_zero():
    assert residual(expm(np.zeros((4, 4))), I4) == 0.0


def test_expm_involution_closed_form():
    got = expm(-0.25j * math.pi * SX)
    assert residual(got, (I2 - 1j * SX) / math.sqrt(2)) < 1e-15


def test_expm_skew_square_root_series():
    # W^2 = -I, so expm(c W) must equal cos(c) I + sin(c) W; cross-check
    # against a directly summed series.
    w = np.array([[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]], dtype=complex)
    assert residual(w @ w, -I4) == 0.0
    for c in (0.3, 1.2, 2.9):
        expected = math.cos(c) * I4 + math.sin(c) * w
        series = np.zeros((4, 4), dtype=complex)
        term = I4.copy()
        for k in range(1, 40):
            series += term
            term = term @ (c * w) / k
        assert residual(expm(c * w), expected) < 1e-13
        assert residual(series, expected) < 1e-13


def test_expm_inverse_pairs():
    rng = np.random.default_rng(5)
    for _ in range(6):
        a = _random_matrix(rng, n=4, scale=math.pi / 2.0)
        assert residual(expm(a) @ expm(-a), I4) < 1e-10


def test_expm_rejects_nonfinite():
    bad = np.array([[np.nan, 0], [0, 0]], dtype=complex)
    with pytest.raises(ValueError):
        expm(bad)


def test_residual_examples():
    assert residual(I4, I4) == 0.0
    assert residual(I4, 2.0 * I4) == 1.0
    assert abs(residual(SX, SY) - math.sqrt(2)) < 1e-15


def test_residual_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        residual(I2, I4)


def test_unitarity_residual():
    assert unitarity_residual(build_b_phi("+", 1.1)) < 1e-12
    assert unitarity_residual(2.0 * I4) == 3.0
