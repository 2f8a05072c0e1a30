"""Constructors of the eight-vertex braid family and its unitary forms."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ybgates.eightvertex import (
    EightVertexWeights,
    ZeroDeformationError,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_b_stack,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    build_R_x_normalized_stack,
    check_constraints,
    R_x_family,
    rho,
    sign_value,
    theta_from_x,
)
from ybgates.linalg import residual, unitarity_residual
from ybgates.yangbaxter import braid_residual, verify_two_eigenvalues

I4 = np.eye(4, dtype=complex)
PHI_GRID = [2.0 * math.pi * k / 8 for k in range(8)]


def test_sign_value():
    assert sign_value("+") == 1.0
    assert sign_value("-") == -1.0
    with pytest.raises(ValueError):
        sign_value("plus")


def test_constraints_on_family_weights():
    w = EightVertexWeights(w1=1, w2=1, w3=1, w4=-1, w5=1, w6=1, w7=1, w8=-1)
    assert all(value == 0.0 for value in check_constraints(w))
    assert residual(w.to_matrix(), build_b("+", 1.0)) == 0.0


def test_constraints_all_ones():
    w = EightVertexWeights(1, 1, 1, 1, 1, 1, 1, 1)
    values = check_constraints(w)
    assert values[-1] == 2.0


def test_constraints_braid_valid_off_circle():
    # q = 2 weights satisfy every constraint and the braid relation, but
    # the matrix is not unitary.
    w = EightVertexWeights(w1=1, w2=1, w3=1, w4=-1, w5=1, w6=1, w7=2, w8=-0.5)
    assert all(value == 0.0 for value in check_constraints(w))
    assert braid_residual(w.to_matrix()) < 1e-12
    assert unitarity_residual(w.to_matrix() / math.sqrt(2)) > 1e-2


def test_build_b_lower_sign():
    expected = np.array(
        [[1, 0, 0, 1], [0, 1, -1, 0], [0, 1, 1, 0], [-1, 0, 0, 1]],
        dtype=complex,
    )
    assert np.array_equal(build_b("-", 1.0), expected)


def test_build_b_zero_deformation():
    with pytest.raises(ZeroDeformationError):
        build_b("+", 0.0)
    with pytest.raises(ZeroDeformationError):
        build_b_stack("+", np.array([1.0, 0.0]))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_stack_constructors_are_bit_identical_to_scalar(sign):
    phis = np.array(PHI_GRID + [0.37, 5.1, -2.2])
    qs = np.exp(-1j * phis)
    xs = np.array([-2.5, -1.0, 0.0, 0.3, 1.0, 1.7, 3.0])
    b = build_b_stack(sign, qs)
    assert b.shape == (len(qs), 4, 4)
    # q varies along the first axis, x along the second.
    r = R_x_family(sign, qs[:, None])(xs)
    assert r.shape == (len(qs), len(xs), 4, 4)
    for k, phi in enumerate(phis):
        q = np.exp(-1j * float(phi))
        assert np.array_equal(b[k], build_b(sign, q))
        for m, x in enumerate(xs):
            assert np.array_equal(r[k, m], build_R_x(sign, q, float(x)))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_b_braid_and_eigenvalues(sign):
    for phi in PHI_GRID:
        b = build_b(sign, np.exp(-1j * phi))
        assert braid_residual(b) < 1e-12
        assert verify_two_eigenvalues(b, (1 - 1j, 1 + 1j)) < 1e-12


def test_build_b_phi_at_zero():
    s2 = 1.0 / math.sqrt(2)
    expected = np.array(
        [[s2, 0, 0, s2], [0, s2, -s2, 0], [0, s2, s2, 0], [-s2, 0, 0, s2]],
        dtype=complex,
    )
    assert residual(build_b_phi("-", 0.0), expected) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_b_phi_unitary_and_braid(sign):
    for phi in PHI_GRID:
        b = build_b_phi(sign, phi)
        assert unitarity_residual(b) < 1e-12
        assert braid_residual(b) < 1e-12


def test_build_b_phi_square_is_skew_root():
    # b_+(0)^2 comes out as the plain anti-symmetric flip, and its square
    # is -I; direct squaring is the oracle for both statements.
    w = build_b_phi("+", 0.0) @ build_b_phi("+", 0.0)
    expected = np.array(
        [[0, 0, 0, 1], [0, 0, 1, 0], [0, -1, 0, 0], [-1, 0, 0, 0]],
        dtype=complex,
    )
    assert residual(w, expected) < 1e-15
    assert residual(w @ w, -I4) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_b_phi_square_squares_to_minus_identity(sign):
    for phi in PHI_GRID:
        w = build_b_phi(sign, phi) @ build_b_phi(sign, phi)
        assert residual(w @ w, -I4) < 1e-12
        assert residual(w, -w.conj().T) < 1e-12


def test_build_R_x_examples():
    assert np.array_equal(build_R_x("+", 1j, 0.0), build_b("+", 1j))
    assert residual(build_R_x("-", 1.0, 1.0), 2.0 * I4) < 1e-14
    expected = np.array(
        [[1.5, 0, 0, 0.5], [0, 1.5, -0.5, 0], [0, 0.5, 1.5, 0], [-0.5, 0, 0, 1.5]],
        dtype=complex,
    )
    assert residual(build_R_x("-", 1.0, 0.5), expected) < 1e-14


def test_rho_values():
    assert rho(0.0) == 2.0
    assert rho(1.0) == 4.0
    assert rho(2.0) == 10.0


def test_normalized_family_examples():
    assert unitarity_residual(build_R_x_normalized("-", 0.0, 0.5)) < 1e-12
    assert residual(build_R_x_normalized("+", 1.2, 0.0), build_b_phi("+", 1.2)) < 1e-15
    assert residual(build_R_x_normalized("-", 0.7, 1.0), I4) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_normalized_family_unitary_grid(sign):
    for phi in PHI_GRID:
        for x in np.linspace(-3.0, 3.0, 13):
            assert unitarity_residual(build_R_x_normalized(sign, phi, float(x))) < 1e-12


def test_normalized_family_counterexample_off_unit_circle():
    # q = 2 breaks unitarity even after dividing by sqrt(rho).
    m = build_R_x("+", 2.0, 0.5) / math.sqrt(rho(0.5))
    assert unitarity_residual(m) > 1e-2


def test_build_R_theta_examples():
    assert residual(build_R_theta("+", 0.9, 0.0), build_b_phi("+", 0.9)) < 1e-15
    assert residual(build_R_theta("-", 1.7, math.pi / 4), I4) < 1e-15
    for theta in (0.1, 0.3, 0.6):
        assert (
            residual(
                build_R_theta("-", 0.0, theta),
                build_R_x_normalized("-", 0.0, math.tan(theta)),
            )
            < 1e-12
        )


@pytest.mark.parametrize("sign", ["+", "-"])
def test_build_R_theta_unitary_for_all_theta(sign):
    # The angle form needs no extra normalization anywhere on the circle.
    for phi in (0.0, 2.1):
        for theta in np.linspace(-math.pi, math.pi, 9):
            assert unitarity_residual(build_R_theta(sign, phi, float(theta))) < 1e-12


def test_parameterization_consistency():
    for sign in ("+", "-"):
        for phi in (0.0, math.pi / 3):
            for x in (0.0, 0.25, 1.0, 4.0):
                assert (
                    residual(
                        build_R_theta(sign, phi, math.atan(x)),
                        build_R_x_normalized(sign, phi, x),
                    )
                    < 1e-12
                )


def test_theta_from_x():
    assert theta_from_x(0.0) == 0.0
    assert abs(theta_from_x(1.0) - math.pi / 4) < 1e-15
    assert abs(theta_from_x(math.sqrt(3.0)) - math.pi / 3) < 1e-15
    assert theta_from_x(-5.0) < 0.0


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=4),
    xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=4),
)
# A multiply by the reciprocal of the norm would give one zero here the
# other sign: a subnormal part of exp(-i phi) goes to zero.
@example(sign="+", phis=[-5e-324], xs=[2.0])
def test_normalized_stack_bit_identical_to_scalar(sign, phis, xs):
    # phi varies along the first axis, x along the second; by the bytes,
    # so the sign of each zero counts.
    got = build_R_x_normalized_stack(sign, np.array(phis)[:, None], xs)
    assert got.shape == (len(phis), len(xs), 4, 4)
    for k, phi in enumerate(phis):
        for m, x in enumerate(xs):
            assert got[k, m].tobytes() == build_R_x_normalized(sign, phi, x).tobytes()


@given(sign=st.sampled_from(["+", "-"]), phis=st.lists(st.floats(-10.0, 10.0), max_size=5))
@example(sign="-", phis=[5e-324, -5e-324, -0.0, math.pi])
def test_b_phi_stack_bit_identical_to_scalar(sign, phis):
    got = build_b_phi_stack(sign, phis)
    assert got.shape == (len(phis), 4, 4)
    for k, phi in enumerate(phis):
        assert got[k].tobytes() == build_b_phi(sign, phi).tobytes()


def test_normalized_stack_divides_by_python_rho():
    # At this x, numpy's (1+x)**2 + (1-x)**2 differs from Python's in the
    # last bit, so dividing by the numpy form would move the matrix.
    x = -0.3987991964982853
    xs = np.array([x])
    numpy_rho = ((1.0 + xs) ** 2 + (1.0 - xs) ** 2)[0]
    assert numpy_rho != rho(x)
    for sign in "+-":
        for phi in (0.0, 0.3, 2.5):
            got = build_R_x_normalized_stack(sign, phi, xs)[0]
            assert np.array_equal(got, build_R_x_normalized(sign, phi, x))
            by_numpy = R_x_family(sign, np.exp(-1j * phi))(x) / math.sqrt(numpy_rho)
            assert not np.array_equal(got, by_numpy)


def test_rho_overflow_names_x():
    with pytest.raises(OverflowError, match=r"x=1e\+200"):
        rho(1e200)
    with pytest.raises(OverflowError, match=r"x=5e\+199"):
        build_R_x_normalized_stack("+", 0.0, [0.0, 5e199, 1e200])


def test_rho_reads_numpy_floats_as_python_floats():
    xs = [-0.3987991964982853, 0.0, -0.0, 1.0, 2.5e-8, 3.7] + np.random.default_rng(
        1805
    ).uniform(-3.0, 3.0, 200).tolist()
    for x in xs:
        want = rho(x)
        for v in (np.float64(x), np.float32(x)):
            got = rho(v)
            # A float32 is rounded once, on the way in, and squared as a double.
            assert type(got) is float and got == rho(float(v))
        assert rho(np.float64(x)) == want


@pytest.mark.parametrize(
    "x, shown",
    [(np.float64(1e200), r"1e\+200"), (np.float64(-3e160), r"-3e\+160"), (10**400, r"1000")],
    ids=["float64", "negative-float64", "huge-int"],
)
def test_rho_overflow_names_numpy_and_int_x(x, shown):
    with pytest.raises(OverflowError, match=rf"overflows at x=.*{shown}"):
        rho(x)
    if isinstance(x, np.floating):
        # Before, numpy's ** gave inf with a warning and this returned zeros.
        with pytest.raises(OverflowError, match=shown):
            build_R_x_normalized("+", 0.0, x)


def _nested_b(sign, q):
    s = sign_value(sign)
    return np.array(
        [[1, 0, 0, q], [0, 1, s, 0], [0, -s, 1, 0], [-1.0 / q, 0, 0, 1]], dtype=complex
    )


def test_build_b_bytes_match_nested_rows():
    qs = [1, -1.0, 2.0, 1j, complex(0.3, -0.0), complex(-0.0, 1.0), np.complex64(1 + 2j)]
    qs += np.exp(-1j * np.linspace(-7.0, 7.0, 57)).tolist()
    for sign in "+-":
        for q in qs:
            assert build_b(sign, q).tobytes() == _nested_b(sign, q).tobytes()
