"""Braid and spectral-relation residual checks against brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import ybgates.yangbaxter

from ybgates.eightvertex import (
    EIGENVALUES,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_R_x,
    R_x_family,
)
from ybgates.linalg import DimensionMismatchError, SingularMatrixError
from ybgates.yangbaxter import (
    braid_residual,
    braid_residuals,
    lift,
    qybe_residual,
    qybe_residuals,
    qybe_table_residuals,
    verify_two_eigenvalues,
    yang_baxterize,
)

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


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


def test_braid_residual_on_unitary_family():
    assert braid_residual(build_b_phi("-", 0.0)) < 1e-12


def test_braid_residual_identity():
    assert braid_residual(I4) == 0.0


def test_braid_residual_detects_perturbation():
    bad = build_b_phi("-", 0.0).copy()
    bad[0, 0] += 0.1
    value = braid_residual(bad)
    assert value > 1e-3
    assert abs(value - _braid_oracle(bad)) < 1e-14


def test_braid_residual_matches_oracle():
    rng = np.random.default_rng(2)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert abs(braid_residual(m) - _braid_oracle(m)) < 1e-11


def test_braid_residual_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        braid_residual(I2)
    # A scalar, and an 8x8 matrix or stack, which is not its lift either.
    for check, arg in [
        (braid_residual, 1.0),
        (braid_residuals, np.complex128(1.0)),
        (braid_residual, np.eye(8)),
        (braid_residuals, np.stack([np.eye(8)] * 2)),
    ]:
        with pytest.raises(DimensionMismatchError):
            check(arg)


def test_qybe_residual_on_derived_family():
    family = lambda t: build_R_x("-", 1.0, t)
    assert qybe_residual(family, 0.3, 0.7) < 1e-12
    assert abs(qybe_residual(family, 0.3, 0.7) - _qybe_oracle(family, 0.3, 0.7)) < 1e-13


def test_qybe_residual_identity_point():
    family = lambda t: build_R_x("-", 1.0, t)
    # R(1) is proportional to the identity, so both sides coincide.
    assert np.array_equal(family(1.0), 2.0 * I4)
    assert qybe_residual(family, 1.0, 1.0) < 1e-12


def test_qybe_residual_constant_family_reduces_to_braid():
    b = build_b_phi("-", 0.0)
    family = lambda t: b
    assert qybe_residual(family, 0.4, 1.7) < 1e-12
    assert abs(qybe_residual(family, 0.4, 1.7) - _braid_oracle(b)) < 1e-14


def test_qybe_first_factor_convention():
    # The unprinted right-hand argument: with y it holds, with x it fails.
    for sign in ("+", "-"):
        family = lambda t: build_R_x(sign, 1.0, t)
        assert qybe_residual(family, 0.3, 0.7) < 1e-12
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


def test_yang_baxterize_singular_input():
    with pytest.raises(SingularMatrixError):
        yang_baxterize(np.zeros((4, 4), dtype=complex), EIGENVALUES)


def test_two_eigenvalue_check():
    assert verify_two_eigenvalues(build_b("-", 1.0), EIGENVALUES) == 0.0
    assert verify_two_eigenvalues(I4, (1.0, 2.0)) == 0.0
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    value = verify_two_eigenvalues(np.kron(sx, I2), EIGENVALUES)
    assert value > 1.0
    assert abs(value - 3.0) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_braid_grid_and_qybe_grid_light(sign):
    for phi in [2.0 * math.pi * k / 8 for k in range(8)]:
        assert braid_residual(build_b_phi(sign, phi)) < 1e-12
        family = lambda t: build_R_x(sign, np.exp(-1j * phi), t)
        for x, y in ((0.25, 1.75), (0.5, 0.5), (2.0, 0.125)):
            assert qybe_residual(family, x, y) < 1e-10


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
        family = lambda t: build_R_x(sign, q, t)
        expected = [_qybe_oracle(family, x, y) for x in values for y in values]
        assert np.array_equal(got, expected)


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
    assert got[0] == _qybe_oracle(family, x, y) == qybe_residual(family, x, y)
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
    # A scalar or a vector in any slot, and unequal N in any slot, lifted
    # or not.
    odd_args = (np.complex128(1.0), np.ones(16), stack[:1], lift(stack[:1]), lift(stack[[0] * 3]))
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
    expected = [_braid_oracle(build_b_phi(sign, phi)) for phi in phis]
    assert got.shape == (len(phis),)
    assert np.array_equal(got, expected)
    assert np.array_equal(got, [braid_residual(build_b_phi(sign, phi)) for phi in phis])
    assert np.all(got < 1e-12)


@given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 5))
def test_braid_residuals_bit_identical_on_random_matrices(seed, count):
    rng = np.random.default_rng(seed)
    stack = rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4))
    assert np.array_equal(braid_residuals(stack), [_braid_oracle(m) for m in stack])


def test_braid_residuals_shape_checks():
    with pytest.raises(DimensionMismatchError):
        braid_residuals(I4)
    with pytest.raises(DimensionMismatchError):
        braid_residuals(np.stack([I2, I2]))
    with pytest.raises(DimensionMismatchError):
        braid_residual(np.stack([I4, I4]))


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


@given(stacks=_stacks(1, st.floats(allow_nan=False, allow_infinity=False) | _EDGES))
def test_lift_equals_kron_in_value_and_copies_entries(stacks):
    stack = stacks[0]
    lifted = lift(stack)
    assert lifted.shape == stack.shape[:1] + (2, 8, 8)
    for m, (left, right) in zip(stack, lifted):
        assert np.array_equal(left, np.kron(m, I2))
        assert np.array_equal(right, np.kron(I2, m))
    # The source entries arrive bit for bit, signed zeros included.
    assert lifted[:, 0, ::2, ::2].tobytes() == stack.tobytes()
    assert lifted[:, 1, 4:, :4].tobytes() == np.zeros_like(stack).tobytes()


def test_lift_keeps_leading_axes_and_checks_shape():
    stack = np.arange(2 * 3 * 16).reshape(2, 3, 4, 4)
    assert lift(stack).shape == (2, 3, 2, 8, 8)
    assert np.array_equal(lift(stack)[1, 2, 1], np.kron(I2, stack[1, 2]))
    with pytest.raises(DimensionMismatchError):
        lift(np.zeros((3, 2, 2)))


@given(stacks=_stacks(3, _EDGES))
def test_residuals_bit_identical_to_kron_oracle_on_finite_stacks(stacks):
    r_x, r_y, r_xy = stacks
    expected = _qybe_stack_oracle(r_x, r_y, r_xy)
    assert np.array_equal(qybe_residuals(r_x, r_y, r_xy), expected)
    # Lifted arguments, and a lift broadcast over the points, run the same
    # kernel.
    lifted_x = lift(r_x)
    assert np.array_equal(
        qybe_residuals(lifted_x, np.broadcast_to(lift(r_y[0]), lifted_x.shape), r_xy),
        _qybe_stack_oracle(r_x, np.broadcast_to(r_y[0], r_y.shape), r_xy),
    )
    assert np.array_equal(braid_residuals(r_x), [_braid_oracle(m) for m in r_x])


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@given(stacks=_stacks(3, _NONFINITE, least=1))
def test_residuals_nonfinite_exactly_where_kron_oracle_is(stacks):
    r_x, r_y, r_xy = stacks
    with np.errstate(all="ignore"):
        got = qybe_residuals(r_x, r_y, r_xy)
        expected = np.array(_qybe_stack_oracle(r_x, r_y, r_xy))
        braids = braid_residuals(r_x)
        braid_expected = np.array([_braid_oracle(m) for m in r_x])
    assert np.array_equal(np.isfinite(got), np.isfinite(expected))
    assert np.array_equal(got[np.isfinite(got)], expected[np.isfinite(expected)])
    assert np.array_equal(np.isfinite(braids), np.isfinite(braid_expected))
    assert np.array_equal(braids[np.isfinite(braids)], braid_expected[np.isfinite(braid_expected)])


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


def _assert_tables_match_point_kernel(tables):
    r_x, r_y, r_xy = tables
    p, i, j = r_xy.shape[:3]
    with np.errstate(all="ignore"):
        got = qybe_table_residuals(r_x, r_y, r_xy)
        from_lifts = qybe_table_residuals(lift(r_x), r_y, lift(r_xy))
        points = qybe_residuals(
            np.repeat(r_x, j, axis=1).reshape(-1, 4, 4),
            np.tile(r_y, (1, i, 1, 1)).reshape(-1, 4, 4),
            r_xy.reshape(-1, 4, 4),
        )
    expected = points.reshape(p, i, j)
    finite = np.isfinite(expected)
    for result in (got, from_lifts):
        assert result.shape == (p, i, j)
        assert np.array_equal(np.isfinite(result), finite)
        assert result[finite].tobytes() == expected[finite].tobytes()


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@given(tables=_tables())
def test_qybe_table_residuals_bit_identical_to_point_kernel(tables):
    _assert_tables_match_point_kernel(tables)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@given(tables=_tables(tables=(1, 130), rows=(1, 1), cols=(1, 1)))
def test_qybe_table_residuals_single_point_tables_bit_identical_to_point_kernel(tables):
    # Every product of a 1 x 1 table is 8 x 8, as in the point kernel, so
    # this holds on every BLAS kernel, not only where the sums of larger
    # products keep their order.
    _assert_tables_match_point_kernel(tables)


def test_qybe_table_residuals_shape_checks():
    x, y = np.stack([I4] * 3)[None], np.stack([I4, I4])[None]
    assert qybe_table_residuals(x, y, np.stack([y[0]] * 3)[None]).shape == (1, 3, 2)
    refused = [
        (x, y, np.stack([x[0]] * 2)[None]),  # r_xy is (J, I), not (I, J)
        (I4, y, y),
        (x, y, x),
        (x[0], y[0], np.stack([y[0]] * 3)),  # no P axis
        (np.concatenate([x, x]), y, np.stack([y[0]] * 3)[None]),  # P of 2, 1 and 1
        (x, y, np.stack([np.stack([y[0]] * 3)] * 2)),  # P of 1, 1 and 2
    ]
    for args in refused:
        with pytest.raises(DimensionMismatchError):
            qybe_table_residuals(*args)


def test_qybe_residuals_refuses_unequal_lifts():
    stack = np.stack([I4, I4])
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(lift(stack), stack, lift(stack[:1]))
    with pytest.raises(DimensionMismatchError):
        qybe_residuals(lift(I4), lift(I4), lift(I4))


@pytest.mark.parametrize(
    "call",
    [
        lambda: braid_residuals(np.stack([I4, 2.0 * I4])),
        lambda: braid_residual(build_b_phi("-", 0.0)),
        lambda: qybe_residuals(*[np.stack([I4, 2.0 * I4])] * 3),
        lambda: qybe_residual(lambda t: build_R_x("+", 1.0, t), 0.3, 0.7),
    ],
    ids=["braid_residuals", "braid_residual", "qybe_residuals", "qybe_residual"],
)
def test_relation_views_are_one_call_of_the_table_kernel(monkeypatch, call):
    # Every Yang-Baxter product is made by qybe_table_residuals; the other
    # kernels are one call of it on one-point tables.
    calls = []
    real = ybgates.yangbaxter.qybe_table_residuals
    monkeypatch.setattr(
        ybgates.yangbaxter,
        "qybe_table_residuals",
        lambda *args: calls.append(args[2].shape[1:3]) or real(*args),
    )
    call()
    assert calls == [(1, 1)]


def test_R_x_family_inverts_once_and_matches_build_R_x(monkeypatch):
    calls = []
    real = ybgates.yangbaxter.inverse
    monkeypatch.setattr(
        ybgates.yangbaxter, "inverse", lambda b: calls.append(b.shape) or real(b)
    )
    q = np.exp(-0.8j)
    family = R_x_family("+", q)
    xs = np.array([0.25, -1.5, 3.0])
    first, second = family(xs), family(xs * 0.7)
    assert calls == [(4, 4)]
    for x, got in zip(np.concatenate([xs, xs * 0.7]), np.concatenate([first, second])):
        assert np.array_equal(got, build_R_x("+", q, float(x)))
    assert np.array_equal(R_x_family("+", q)(xs), first)
