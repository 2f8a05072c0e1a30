"""Constructors of the eight-vertex braid family and its unitary forms."""

import math

import numpy as np
import pytest

from ybgates.eightvertex import (
    EightVertexWeights,
    ZeroDeformationError,
    build_b,
    build_b_phi,
    build_b_stack,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    build_R_x_stack,
    check_constraints,
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
    r = build_R_x_stack(sign, qs[:, None], xs)
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
