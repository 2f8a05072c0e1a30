"""Braid and spectral-relation residual checks against brute-force oracles."""

import math
import re
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qybe_point import qybe_point
import ybgates.yangbaxter

from ybgates.eightvertex import (
    EIGENVALUES,
    PHI_EIGENVALUES,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_b_stack,
    build_R_x,
    R_x_family,
)
from ybgates.linalg import DimensionMismatchError
from ybgates.paulis import SQRT2
from ybgates.yangbaxter import (
    braid_residuals,
    inverse_from_eigenvalues,
    qybe_residuals,
    verify_two_eigenvalues,
    yang_baxterize,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def _kron_lifts(m):
    """Both 8x8 lifts, m (x) I and I (x) m, of a (..., 4, 4) stack, as one
    (..., 2, 8, 8) stack built with np.kron."""
    m = np.asarray(m, dtype=complex)
    lifts = [np.stack([np.kron(a, I2), np.kron(I2, a)]) for a in m.reshape(-1, 4, 4)]
    return np.array(lifts).reshape(m.shape[:-2] + (2, 8, 8))


def _braid_oracle(b):
    # Direct 8x8 products of both sides, independent of the module's lift.
    left = np.kron(b, I2)
    right = np.kron(I2, b)
    return np.max(np.abs(left @ right @ left - right @ left @ right))


def _qybe_oracle(family, x, y):
    r1 = lambda m: np.kron(m, I2)
    r2 = lambda m: np.kron(I2, m)
    lhs = r1(family(x)) @ r2(family(x * y)) @ r1(family(y))
    rhs = r2(family(y)) @ r1(family(x * y)) @ r2(family(x))
    return np.max(np.abs(lhs - rhs))


# The zero pattern of every eight-vertex matrix, read off one b.
_EIGHT_VERTEX = build_b("+", 0.5 + 0.5j) != 0


def _path_oracle(r_x, r_y, r_xy):
    """QYBE residual of each point of three (N, 4, 4) stacks: every entry
    of both sides is the sum over the paths (k, l) on which all three
    np.kron lifts are structurally non-zero, in row-major order, of
    A[i, k] B[k, l] C[l, j] multiplied left to right, added one at a time.
    The lifts' structure is the eight-vertex pattern's, or the dense one if
    any matrix has a non-zero entry outside it. Arithmetic runs on numpy
    arrays over the points, as numpy's scalar complex multiply rounds
    differently."""
    stacks = [np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy)]
    dense = any(np.any(m[:, ~_EIGHT_VERTEX] != 0) for m in stacks)
    pattern = np.ones((4, 4)) if dense else _EIGHT_VERTEX.astype(float)
    r1 = lambda m: np.kron(m, I2)
    r2 = lambda m: np.kron(I2, m)
    x, y, xy = stacks
    sides = []
    for lifts, matrices in (((r1, r2, r1), (x, xy, y)), ((r2, r1, r2), (y, xy, x))):
        a, b, c = (f(m) for f, m in zip(lifts, matrices))
        sa, sb, sc = (f(pattern) != 0 for f in lifts)
        side = np.zeros((len(x), 8, 8), dtype=complex)
        for i in range(8):
            for j in range(8):
                terms = [
                    a[:, i, k] * b[:, k, l] * c[:, l, j]
                    for k in range(8)
                    for l in range(8)
                    if sa[i, k] and sb[k, l] and sc[l, j]
                ]
                for n, term in enumerate(terms):
                    side[:, i, j] = term if n == 0 else side[:, i, j] + term
        sides.append(side)
    return np.abs(sides[0] - sides[1]).max(axis=(1, 2))


# u = 2^-53 and gamma_16 = 16 u / (1 - 16 u) (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., 2002, section 3.1).
_GAMMA_16 = 16 * 2.0**-53 / (1 - 16 * 2.0**-53)


def _kron_bound(r_x, r_y, r_xy):
    """How far two evaluations of each point's residual, by any summation
    order, may differ: 2 gamma_16 times the largest entry of |A||B||C| of
    each side, summed over the sides."""
    r1 = lambda m: np.kron(np.abs(m), I2)
    r2 = lambda m: np.kron(I2, np.abs(m))
    x, y, xy = (np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy))
    left = r1(x) @ r2(xy) @ r1(y)
    right = r2(y) @ r1(xy) @ r2(x)
    return 2 * _GAMMA_16 * (left.max(axis=(1, 2)) + right.max(axis=(1, 2)))


def _assert_path_and_kron_oracles(got, r_x, r_y, r_xy):
    """Residuals ``got`` of three stacks: bit-identical to the path oracle,
    and within _kron_bound of the np.kron matmul oracle."""
    assert got.tobytes() == _path_oracle(r_x, r_y, r_xy).tobytes()
    kron = np.array(_qybe_stack_oracle(r_x, r_y, r_xy))
    assert np.all(np.abs(got - kron) <= _kron_bound(r_x, r_y, r_xy))


def test_braid_residual_on_unitary_family():
    assert float(braid_residuals(build_b_phi("-", 0.0))) < 1e-12


def test_braid_residual_identity():
    assert float(braid_residuals(I4)) == 0.0


def test_braid_residual_detects_perturbation():
    bad = build_b_phi("-", 0.0).copy()
    bad[0, 0] += 0.1
    value = float(braid_residuals(bad))
    assert value > 1e-3
    assert abs(value - _braid_oracle(bad)) < 1e-14


def test_braid_residual_matches_oracle():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(float(braid_residuals(m)) - _braid_oracle(m)) < 1e-11


def test_braid_residual_dim_mismatch():
    message = re.escape("expected a 4x4 matrix, got (2, 2)")
    with pytest.raises(DimensionMismatchError, match=message):
        braid_residuals(I2)
    # A scalar, and an 8x8 matrix or stack, which is not its lift either.
    for arg in [1.0, np.complex128(1.0), np.eye(8), np.stack([np.eye(8)] * 2)]:
        with pytest.raises(DimensionMismatchError):
            braid_residuals(arg)


def test_qybe_residual_on_derived_family():
    family = lambda t: build_R_x("-", 1.0, t)
    assert qybe_point(family, 0.3, 0.7) < 1e-12
    assert abs(qybe_point(family, 0.3, 0.7) - _qybe_oracle(family, 0.3, 0.7)) < 1e-13


def test_qybe_residual_identity_point():
    family = lambda t: build_R_x("-", 1.0, t)
    # R(1) is proportional to the identity, so both sides coincide.
    assert np.array_equal(family(1.0), 2.0 * I4)
    assert qybe_point(family, 1.0, 1.0) < 1e-12


def test_qybe_residual_constant_family_reduces_to_braid():
    b = build_b_phi("-", 0.0)
    family = lambda t: b
    assert qybe_point(family, 0.4, 1.7) < 1e-12
    assert abs(qybe_point(family, 0.4, 1.7) - _braid_oracle(b)) < 1e-14


def test_qybe_first_factor_convention():
    # The unprinted right-hand argument: with y it holds, with x it fails.
    for sign in ("+", "-"):
        family = lambda t: build_R_x(sign, 1.0, t)
        assert qybe_point(family, 0.3, 0.7) < 1e-12
        r1 = lambda m: np.kron(m, I2)
        r2 = lambda m: np.kron(I2, m)
        lhs = r1(family(0.3)) @ r2(family(0.21)) @ r1(family(0.7))
        rhs_x = r2(family(0.3)) @ r1(family(0.21)) @ r2(family(0.3 * 0.7))
        assert np.max(np.abs(lhs - rhs_x)) > 1e-3


def test_yang_baxterize_at_zero_is_exact():
    b = build_b("+", np.exp(-0.9j))
    assert np.array_equal(yang_baxterize(b, EIGENVALUES)(0.0), b)


def test_yang_baxterize_at_one():
    got = yang_baxterize(build_b("-", 1.0), EIGENVALUES)(1.0)
    assert np.max(np.abs(got - 2.0 * I4)) < 1e-14


def test_yang_baxterize_frozen_midpoint():
    expected = np.array(
        [
            [1.5, 0, 0, 0.5],
            [0, 1.5, -0.5, 0],
            [0, 0.5, 1.5, 0],
            [-0.5, 0, 0, 1.5],
        ],
        dtype=complex,
    )
    got = yang_baxterize(build_b("-", 1.0), EIGENVALUES)(0.5)
    assert np.max(np.abs(got - expected)) < 1e-14


def test_yang_baxterize_entry_pattern():
    # Entries depend on x only through 1+x and 1-x around the b pattern.
    for sign, s in (("+", 1.0), ("-", -1.0)):
        for x in (0.1, 0.8, 3.0):
            q = np.exp(-1.3j)
            expected = np.array(
                [
                    [1 + x, 0, 0, q * (1 - x)],
                    [0, 1 + x, s * (1 - x), 0],
                    [0, -s * (1 - x), 1 + x, 0],
                    [-(1 - x) / q, 0, 0, 1 + x],
                ],
                dtype=complex,
            )
            got = yang_baxterize(build_b(sign, q), EIGENVALUES)(x)
            assert np.max(np.abs(got - expected)) < 1e-12


def test_yang_baxterize_refuses_b_outside_its_premise():
    # The zero matrix, a b with a third eigenvalue, and a zero eigenvalue.
    for b, eigenvalues in [
        (np.zeros((4, 4), dtype=complex), EIGENVALUES),
        (np.diag([1 - 1j, 1 + 1j, 3.0, 1 + 1j]), EIGENVALUES),
        (np.diag([0.0, 0.0, 1.0, 1.0]), (0.0, 1.0)),
    ]:
        with pytest.raises(ValueError):
            yang_baxterize(b, eigenvalues)
    # One matrix outside the premise refuses a whole stack.
    with pytest.raises(ValueError):
        yang_baxterize(np.stack([build_b("+", 0.3j), np.eye(4)]), EIGENVALUES)
    # A b that is not (..., n, n) is refused by its shape.
    for b in (np.complex128(1.0), np.ones(4), np.ones((4, 3)), np.ones((2, 3, 4))):
        with pytest.raises(DimensionMismatchError, match=re.escape(str(b.shape))):
            yang_baxterize(b, EIGENVALUES)


def test_yang_baxterize_lets_nonfinite_b_through():
    # Its map is non-finite too; callers report that, not the premise.
    b = build_b("+", 1.0)
    b[0, 3] = np.inf
    with np.errstate(all="ignore"):
        assert not np.isfinite(yang_baxterize(b, EIGENVALUES)(1.0)).all()


@pytest.mark.parametrize("q", [1.0, 0.3j, 1e-150, 1e150, np.exp(-2.1j)])
def test_yang_baxterize_accepts_the_family_at_any_scale(q):
    for sign in "+-":
        b = build_b(sign, q)
        expected = b + 0.7 * 2.0 * np.linalg.inv(b)  # the paper's form, by LAPACK
        got = yang_baxterize(b, EIGENVALUES)(0.7)
        assert np.max(np.abs(got - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_inverse_from_eigenvalues_of_the_unitary_family_is_exact():
    # exp(-+ i pi/4) sum to SQRT2 and multiply to 1.0 in floats, so the
    # inverse is sqrt(2) I - b(phi) bit for bit.
    assert sum(PHI_EIGENVALUES) == SQRT2 and PHI_EIGENVALUES[0] * PHI_EIGENVALUES[1] == 1.0
    b = build_b_phi_stack("-", np.linspace(0.0, 6.3, 97))
    got = inverse_from_eigenvalues(b, PHI_EIGENVALUES)
    assert got.tobytes() == (SQRT2 * I4 - b).tobytes()
    assert np.max(np.abs(got - np.linalg.inv(b))) < 1e-15
    halved = inverse_from_eigenvalues(build_b_stack("+", np.exp(-0.4j)), EIGENVALUES)
    assert halved.tobytes() == ((2.0 * I4 - build_b_stack("+", np.exp(-0.4j))) / 2).tobytes()
    with pytest.raises(ValueError):
        inverse_from_eigenvalues(I4, (0.0, 1.0))


def test_two_eigenvalue_check():
    assert verify_two_eigenvalues(build_b("-", 1.0), EIGENVALUES) == 0.0
    assert verify_two_eigenvalues(I4, (1.0, 2.0)) == 0.0
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    value = verify_two_eigenvalues(np.kron(sx, I2), EIGENVALUES)
    assert value > 1.0
    assert abs(value - 3.0) < 1e-12
    # Anything but one square matrix is refused by its shape: stacks of 3
    # and of 4 matrices, a non-square matrix, a vector and a scalar.
    b = build_b("-", 1.0)
    for odd in (np.stack([b] * 3), np.stack([b] * 4), b[:, :3], b[0], np.complex128(1.0)):
        with pytest.raises(DimensionMismatchError, match=re.escape(str(odd.shape))):
            verify_two_eigenvalues(odd, EIGENVALUES)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_braid_grid_and_qybe_grid_light(sign):
    for phi in [2.0 * math.pi * k / 8 for k in range(8)]:
        assert float(braid_residuals(build_b_phi(sign, phi))) < 1e-12
        family = lambda t: build_R_x(sign, np.exp(-1j * phi), t)
        for x, y in ((0.25, 1.75), (0.5, 0.5), (2.0, 0.125)):
            assert qybe_point(family, x, y) < 1e-10


@pytest.mark.parametrize("n", [8, 16])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_qybe_residuals_bit_identical_to_oracle_on_verify_grids(sign, n):
    # The verify qybe grid: x and y over 2k/n, k = 1..n, x-major.
    values = [2.0 * k / n for k in range(1, n + 1)]
    xs = np.repeat(values, n)
    ys = np.tile(values, n)
    for phi in [2.0 * math.pi * k / 8 for k in range(8)]:
        q = np.exp(-1j * phi)
        got = qybe_residuals(*R_x_family(sign, q)(np.stack([xs, ys, xs * ys])))
        stacks = [np.array([build_R_x(sign, q, t) for t in ts]) for ts in (xs, ys, xs * ys)]
        _assert_path_and_kron_oracles(got, *stacks)


@given(
    sign=st.sampled_from(["+", "-"]),
    phi=st.floats(0.0, 2.0 * math.pi),
    x=st.floats(-4.0, 4.0),
    y=st.floats(-4.0, 4.0),
)
def test_qybe_residuals_property(sign, phi, x, y):
    q = np.exp(-1j * phi)
    stacks = R_x_family(sign, q)(np.array([[x], [y], [x * y]]))
    got = qybe_residuals(*stacks)
    family = lambda t: build_R_x(sign, q, t)
    assert got.shape == (1,)
    assert got[0] == qybe_point(family, x, y)
    _assert_path_and_kron_oracles(got, *stacks)
    # Rounding grows with the entries of the three factors on each side.
    scale = (1.0 + abs(x)) * (1.0 + abs(y)) * (1.0 + abs(x * y))
    assert got[0] <= 1e-14 * scale


def test_qybe_residuals_shape_checks():
    stack = np.stack([I4, I4])
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(stack, stack, stack[:1])
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(I4, I4, I4)
    small = np.stack([I2, I2])
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(small, small, small)
    # A scalar or a vector in any slot, one point against N, unequal N, a
    # table of points (1, N, 4, 4), and lifts (N, 2, 8, 8), of equal N or
    # not.
    odd_args = (
        np.complex128(1.0), np.ones(16), stack[:1], stack[[0] * 3], stack[None],
        _kron_lifts(stack), _kron_lifts(stack[:1]), _kron_lifts(stack[[0] * 3]),
    )
    for odd in odd_args:
        for slot in range(3):
            args = [stack, stack, stack]
            args[slot] = odd
            with pytest.raises(DimensionMismatchError):
                qybe_residuals(*args)


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=6),
)
def test_braid_residuals_property(sign, phis):
    got = braid_residuals(build_b_phi_stack(sign, phis))
    b = np.array([build_b_phi(sign, phi) for phi in phis])
    assert got.shape == (len(phis),)
    _assert_path_and_kron_oracles(got, b, b, b)
    assert np.array_equal(got, [float(braid_residuals(build_b_phi(sign, phi))) for phi in phis])
    assert np.all(got < 1e-12)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
def test_braid_residuals_bit_identical_on_random_matrices(seed, count):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    _assert_path_and_kron_oracles(braid_residuals(stack), stack, stack, stack)


def test_braid_residuals_shape_checks():
    # Any (..., 4, 4) stack gives one residual per matrix, in its shape.
    for shape in [(), (2,), (0,), (2, 3), (1, 1, 1)]:
        assert braid_residuals(np.broadcast_to(I4, shape + (4, 4))).shape == shape
    for arg in [np.stack([I2, I2]), np.ones(16), np.ones((4, 4, 2))]:
        with pytest.raises(DimensionMismatchError):
            braid_residuals(arg)


def test_braid_residuals_of_one_matrix_is_its_entry_in_any_stack():
    # One matrix gives a 0-d result with the bits it has in a stack of any
    # size and shape, whichever path tables the stack's other matrices pick.
    rng = np.random.default_rng(38)
    family = [build_b_phi(s, p) for s in "+-" for p in rng.uniform(-7.0, 7.0, 4)]
    family += [
        build_R_x(s, np.exp(-1j * p), x) for s in "+-" for p, x in rng.uniform(-3.0, 3.0, (4, 2))
    ]
    dense = rng.standard_normal((6, 4, 4)) + 1j * rng.standard_normal((6, 4, 4))
    dense[rng.random((6, 4, 4)) < 0.3] = 0.0
    dense.real[rng.random((6, 4, 4)) < 0.2] = -0.0
    dense.imag[rng.random((6, 4, 4)) < 0.2] = -0.0
    stack = np.concatenate([family, dense])
    for k, m in enumerate(stack):
        alone = braid_residuals(m)
        assert alone.shape == ()
        for sizes in [(1,), (len(stack),), (3, len(stack))]:
            got = braid_residuals(np.broadcast_to(m, sizes + (4, 4)))
            assert got.tobytes() == np.full(sizes, alone).tobytes()
        assert braid_residuals(stack)[k].tobytes() == alone.tobytes()
        assert braid_residuals(stack[: k + 1])[k].tobytes() == alone.tobytes()
    bad = build_b_phi("+", 0.3)
    bad[1, 2] = math.nan
    assert not np.isfinite(braid_residuals(bad))
    assert not np.isfinite(braid_residuals(np.stack([I4, bad, I4]))[1])


# Signed zeros and subnormals, which a product with 1 or 0 can change
# (the sign of a zero) while a copy cannot.
_EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308])
_NONFINITE = st.sampled_from([math.inf, -math.inf, math.nan])


def _stacks(count, specials, least=0):
    """``count`` equal-shaped (N, 4, 4) complex stacks of seeded random
    parts, a third of them zero, with ``least`` to 8 parts drawn from
    ``specials``."""

    @st.composite
    def draw_stacks(draw):
        n = draw(st.integers(1, 3))
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        parts = rng.standard_normal((count, n, 4, 4, 2)) * 10.0 ** rng.integers(-6, 7)
        parts[rng.random(parts.shape) < 1 / 3] = 0.0
        for _ in range(draw(st.integers(least, 8))):
            parts[tuple(draw(st.integers(0, d - 1)) for d in parts.shape)] = draw(specials)
        # A view keeps every part bit for bit (1j * part would not).
        return parts.view(np.complex128)[..., 0]

    return draw_stacks()


def _qybe_stack_oracle(r_x, r_y, r_xy):
    r1 = lambda m: np.kron(m, I2)
    r2 = lambda m: np.kron(I2, m)
    return [
        np.max(np.abs(r1(a) @ r2(c) @ r1(b) - r2(b) @ r1(c) @ r2(a)))
        for a, b, c in zip(r_x, r_y, r_xy)
    ]


@given(stacks=_stacks(3, _EDGES), eight_vertex=st.booleans())
def test_residuals_bit_identical_to_kron_oracle_on_finite_stacks(stacks, eight_vertex):
    # The path oracle sums the paths of the np.kron lifts; the np.kron
    # matmul oracle sums in BLAS's order, so it agrees within a bound.
    r_x, r_y, r_xy = (m * _EIGHT_VERTEX if eight_vertex else m for m in stacks)
    _assert_path_and_kron_oracles(qybe_residuals(r_x, r_y, r_xy), r_x, r_y, r_xy)
    # A matrix broadcast over the points runs the same kernel.
    r_y0 = np.broadcast_to(r_y[0], r_y.shape)
    _assert_path_and_kron_oracles(qybe_residuals(r_x, r_y0, r_xy), r_x, r_y0, r_xy)
    _assert_path_and_kron_oracles(braid_residuals(r_x), r_x, r_x, r_x)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@given(stacks=_stacks(3, _NONFINITE, least=1))
def test_residuals_nonfinite_exactly_where_kron_oracle_is(stacks):
    r_x, r_y, r_xy = stacks
    with np.errstate(all="ignore"):
        got = qybe_residuals(r_x, r_y, r_xy)
        expected = np.array(_qybe_stack_oracle(r_x, r_y, r_xy))
        braids = braid_residuals(r_x)
        braid_expected = np.array([_braid_oracle(m) for m in r_x])
        paths = _path_oracle(r_x, r_y, r_xy)
        braid_paths = _path_oracle(r_x, r_x, r_x)
    assert np.array_equal(np.isfinite(got), np.isfinite(expected))
    assert np.array_equal(got[np.isfinite(got)], paths[np.isfinite(expected)])
    assert np.array_equal(np.isfinite(braids), np.isfinite(braid_expected))
    assert np.array_equal(braids[np.isfinite(braids)], braid_paths[np.isfinite(braid_expected)])


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_qybe_residuals_point_bit_identical_in_a_call_of_any_size(monkeypatch):
    # 279 points: four 64-point chunks and a partial one of 23. Chunks 0
    # and 4 hold eight-vertex points only; chunk 1 is dense; chunk 2 has
    # one dense point among eight-vertex ones; chunk 3 holds infinities,
    # NaN and +-1e300, NaN also outside the pattern. The call takes the
    # dense tables once, for all its points. Each point's residual equals
    # its one-point call bit for bit, or both are non-finite.
    rng = np.random.default_rng(11)
    n = 4 * 64 + 23
    parts = rng.standard_normal((3, n, 4, 4, 2)) * 10.0 ** rng.integers(-6, 7, (3, n, 1, 1, 1))
    parts[rng.random(parts.shape) < 1 / 3] = 0.0
    stacks = parts.view(np.complex128)[..., 0]  # a view keeps every part bit for bit
    stacks[:, :64] *= _EIGHT_VERTEX
    stacks[:, 128:] *= _EIGHT_VERTEX
    stacks[1, 150, 0, 1] = 0.5
    stacks[0, 200, 0, 0] = math.inf
    stacks[2, 210, 0, 1] = math.nan
    stacks[1, 220, 3, 3] = -math.inf
    stacks[0, 230, 0, 3] = math.nan
    stacks[2, 240, 2, 2] = 1e300
    dense = []
    tables = ybgates.yangbaxter._path_tables
    monkeypatch.setattr(
        ybgates.yangbaxter, "_path_tables", lambda flag: dense.append(flag) or tables(flag)
    )
    with np.errstate(all="ignore"):
        got = qybe_residuals(*stacks)
        assert dense == [True]
        single = np.concatenate([qybe_residuals(*stacks[:, k : k + 1]) for k in range(n)])
    finite = np.isfinite(single)
    assert 0 < np.count_nonzero(~finite) < 10
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == single[finite].tobytes()
    _assert_path_and_kron_oracles(got[:192], *stacks[:, :192])


def test_qybe_residuals_partial_chunk_clears_the_columns_it_does_not_use(monkeypatch):
    # 65 eight-vertex points: a full chunk and a one-point chunk. Point 40
    # has a NaN outside b's pattern, so the call takes the dense tables,
    # once. The one-point chunk reuses the workspace, whose column 40
    # still holds that NaN, and its one column is the only one it reports:
    # point 64 keeps its one-point bits.
    rng = np.random.default_rng(13)
    family = R_x_family("+", np.exp(-1j * rng.uniform(0.0, 6.3, 65)))
    x, y = rng.uniform(-3.0, 3.0, (2, 65))
    stacks = np.stack([family(x), family(y), family(x * y)])
    stacks[0, 40, 0, 1] = math.nan
    single = qybe_residuals(*stacks[:, 64:])
    dense = []
    tables = ybgates.yangbaxter._path_tables
    monkeypatch.setattr(
        ybgates.yangbaxter, "_path_tables", lambda flag: dense.append(flag) or tables(flag)
    )
    with np.errstate(all="ignore"):
        got = qybe_residuals(*stacks)
    assert dense == [True]
    assert np.isnan(got[40]) and np.isfinite(np.delete(got, 40)).all()
    assert got[64:].tobytes() == single.tobytes()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_qybe_residuals_off_pattern_entry_in_the_last_partial_chunk(monkeypatch):
    # 4096 + 64 + 5 eight-vertex points: more than one 4096-point scan
    # slice, and a partial last chunk of 5 whose point 4163 alone has
    # entries outside b's pattern, one of them infinite. The call takes
    # the dense tables exactly once, and every finite point equals its
    # one-point call bit for bit.
    rng = np.random.default_rng(17)
    n = 4096 + 64 + 5
    family = R_x_family("-", np.exp(-1j * rng.uniform(0.0, 6.3, n)))
    x, y = rng.uniform(-3.0, 3.0, (2, n))
    stacks = np.stack([family(x), family(y), family(x * y)])
    stacks[2, n - 2, 1, 2] = 0.25
    stacks[1, n - 2, 3, 1] = math.inf
    with np.errstate(all="ignore"):
        single = np.concatenate([qybe_residuals(*stacks[:, k : k + 1]) for k in range(n)])
    dense = []
    tables = ybgates.yangbaxter._path_tables
    monkeypatch.setattr(
        ybgates.yangbaxter, "_path_tables", lambda flag: dense.append(flag) or tables(flag)
    )
    with np.errstate(all="ignore"):
        got = qybe_residuals(*stacks)
    assert dense == [True]
    finite = np.isfinite(single)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.count_nonzero(~finite) == 1 and not finite[n - 2]
    assert got[finite].tobytes() == single[finite].tobytes()


def test_dense_tables_give_the_eight_vertex_residuals_on_the_family(monkeypatch):
    # The dense tables only add paths through structural zeros, whose
    # terms are exact zeros, so on finite eight-vertex input they give the
    # same residual bits; a call of points may take either.
    rng = np.random.default_rng(5)
    family = R_x_family("-", np.exp(-1j * rng.uniform(0.0, 6.3, 189)))
    x, y = rng.uniform(-3.0, 3.0, (2, 189))
    points = family(x), family(y), family(x * y)
    expected = qybe_residuals(*points)
    dense = ybgates.yangbaxter._path_tables(True)
    monkeypatch.setattr(ybgates.yangbaxter, "_path_tables", lambda _: dense)
    assert qybe_residuals(*points).tobytes() == expected.tobytes()


@st.composite
def _tables(draw, tables=(1, 4), rows=(1, 70), cols=(1, 12)):
    """P tables, each an x axis of I matrices, a y axis of J, and the
    (I, J) stack at their products, as (P, I), (P, J) and (P, I, J) stacks
    of seeded random parts, a third of them zero, with up to 6 parts drawn
    from infinities, NaN and +-1e300. P, I and J are drawn from the
    inclusive ranges ``tables``, ``rows`` and ``cols``."""
    p, i, j = (draw(st.integers(*bounds)) for bounds in (tables, rows, cols))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stacks = []
    for shape in ((p, i), (p, j), (p, i, j)):
        parts = rng.standard_normal(shape + (4, 4, 2)) * 10.0 ** rng.integers(-6, 7)
        parts[rng.random(parts.shape) < 1 / 3] = 0.0
        stacks.append(parts)
    specials = st.sampled_from([math.inf, -math.inf, math.nan, 1e300, -1e300])
    for _ in range(draw(st.integers(0, 6))):
        parts = stacks[draw(st.integers(0, 2))]
        parts[tuple(draw(st.integers(0, d - 1)) for d in parts.shape)] = draw(specials)
    return [parts.view(np.complex128)[..., 0] for parts in stacks]


def _table_points(r_x, r_y, r_xy):
    """The (P, I, J) points of a table as three (P*I*J, 4, 4) stacks, in
    the order the verify grid uses: P, then I, then J fastest."""
    i, j = r_xy.shape[1:3]
    return (
        np.repeat(r_x, j, axis=1).reshape(-1, 4, 4),
        np.tile(r_y, (1, i, 1, 1)).reshape(-1, 4, 4),
        r_xy.reshape(-1, 4, 4),
    )


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@given(tables=_tables())
def test_qybe_table_residuals_bit_identical_to_point_kernel(tables):
    # A whole table of points in one call gives each point's one-point
    # residual bit for bit, or both are non-finite.
    points = _table_points(*tables)
    with np.errstate(all="ignore"):
        got = qybe_residuals(*points)
        single = np.concatenate(
            [qybe_residuals(*(m[k : k + 1] for m in points)) for k in range(len(got))]
        )
    finite = np.isfinite(single)
    assert got.shape == (tables[2][..., 0, 0].size,)
    assert np.array_equal(np.isfinite(got), finite)
    assert got[finite].tobytes() == single[finite].tobytes()


@given(
    seed=st.integers(0, 2**32 - 1),
    shape=st.tuples(*[st.integers(1, n) for n in (3, 20, 9)]),
    eight_vertex=st.booleans(),
)
def test_qybe_table_residuals_bit_identical_to_path_oracle(seed, shape, eight_vertex):
    # Random finite tables, in the eight-vertex pattern or dense, each
    # point against the path oracle and the np.kron matmul oracle.
    p, i, j = shape
    rng = np.random.default_rng(seed)
    points = _table_points(
        *(
            (rng.standard_normal(s + (4, 4)) + 1j * rng.standard_normal(s + (4, 4)))
            * (_EIGHT_VERTEX if eight_vertex else 1.0)
            for s in ((p, i), (p, j), (p, i, j))
        )
    )
    got = qybe_residuals(*points)
    assert got.shape == (p * i * j,)
    _assert_path_and_kron_oracles(got, *points)


def test_qybe_table_residuals_shape_checks():
    # A table reaches the kernel only as points; the kernel refuses the
    # table stacks themselves, whatever their P, I and J.
    x, y = np.stack([I4] * 3)[None], np.stack([I4, I4])[None]
    assert qybe_residuals(*_table_points(x, y, np.stack([y[0]] * 3)[None])).shape == (6,)
    refused = [
        (x, y, np.stack([y[0]] * 3)[None]),  # the (P, I), (P, J), (P, I, J) table
        (x, y, np.stack([x[0]] * 2)[None]),  # r_xy is (J, I), not (I, J)
        (I4, y, y),
        (x, y, x),
        (x[0], y[0], np.stack([y[0]] * 3)),  # no P axis
        (np.concatenate([x, x]), y, np.stack([y[0]] * 3)[None]),  # P of 2, 1 and 1
        (x, y, np.stack([np.stack([y[0]] * 3)] * 2)),  # P of 1, 1 and 2
    ]
    for args in refused:
        with pytest.raises(DimensionMismatchError):
            qybe_residuals(*args)


def test_qybe_residuals_refuses_unequal_lifts():
    stack = np.stack([I4, I4])
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(_kron_lifts(stack), stack, _kron_lifts(stack[:1]))
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(_kron_lifts(I4), _kron_lifts(I4), _kron_lifts(I4))


@pytest.mark.parametrize(
    "call",
    [
        lambda: braid_residuals(np.stack([I4, 2.0 * I4])),
        lambda: braid_residuals(build_b_phi("-", 0.0)),
        lambda: qybe_residuals(*[np.stack([I4, 2.0 * I4])] * 3),
        lambda: qybe_point(lambda t: build_R_x("+", 1.0, t), 0.3, 0.7),
    ],
    ids=["braid_residuals", "braid_residual", "qybe_residuals", "qybe_residual"],
)
def test_relation_views_are_one_call_of_the_table_kernel(monkeypatch, call):
    # Every Yang-Baxter product is summed over the path tables, and only
    # qybe_residuals gathers them: each check, on one chunk of points, is
    # one call of it.
    callers = []
    tables = ybgates.yangbaxter._path_tables

    def spy(dense):
        callers.append(sys._getframe(1).f_code.co_name)
        return tables(dense)

    monkeypatch.setattr(ybgates.yangbaxter, "_path_tables", spy)
    call()
    assert callers == ["qybe_residuals"]


def test_R_x_family_bit_identical_to_build_R_x():
    qs = np.exp(-1j * np.array([0.0, 0.8, 2.9]))[:, None]
    xs = np.array([0.0, -0.0, 0.25, -1.5, 1.0, 3.0, 1e-300, -7e15])
    for sign in "+-":
        family = R_x_family(sign, qs)
        first, second = family(xs), family(xs * 0.7)
        assert first.shape == (3, len(xs), 4, 4)
        for q, row, row_07 in zip(qs[:, 0], first, second):
            for x, got, got_07 in zip(xs, row, row_07):
                assert got.tobytes() == build_R_x(sign, q, float(x)).tobytes()
                assert got_07.tobytes() == build_R_x(sign, q, float(x * 0.7)).tobytes()
        assert np.array_equal(R_x_family(sign, qs)(xs), first)
