"""Hamiltonian extraction, Pauli/axis forms, and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybgates.eightvertex import (
    build_b_phi,
    build_R_theta,
    build_R_x_normalized,
    sign_value,
)
from ybgates.hamiltonian import (
    R_from_H,
    axis_angle_pair,
    evolution_U,
    generator_fd,
    hamiltonian_const,
    hamiltonian_x,
    interaction_operator,
    pauli_decompose,
    schrodinger_residual,
    schrodinger_residuals,
    sigma_axis,
)
from ybgates.linalg import dagger, expm, kron, residual

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
PHI_GRID = [2.0 * math.pi * k / 8 for k in range(8)]


def _display_hamiltonian(sign, phi):
    # The closed-form matrix: (i/2) times the anti-diagonal pattern with
    # -e^{-i phi}, -+1, +-1, e^{i phi}.
    s = sign_value(sign)
    return 0.5j * np.array(
        [
            [0, 0, 0, -np.exp(-1j * phi)],
            [0, 0, -s, 0],
            [0, s, 0, 0],
            [np.exp(1j * phi), 0, 0, 0],
        ],
        dtype=complex,
    )


@pytest.mark.parametrize("sign", ["+", "-"])
def test_hamiltonian_const_matches_display(sign):
    for phi in PHI_GRID:
        h = hamiltonian_const(sign, phi)
        assert residual(h, _display_hamiltonian(sign, phi)) < 1e-15
        assert residual(h, dagger(h)) < 1e-15
        assert abs(np.trace(h)) < 1e-15
        assert residual(h @ h, I4 / 4.0) < 1e-12


def test_hamiltonian_const_plus_zero():
    expected = 0.5j * np.array(
        [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
        dtype=complex,
    )
    h = hamiltonian_const("+", 0.0)
    assert residual(h, expected) < 1e-15
    assert residual(h, 0.5 * kron(SY, SX)) < 1e-15


def test_hamiltonian_x_anchor_and_scale():
    for sign in ("+", "-"):
        for phi in (0.0, 1.1):
            assert residual(
                hamiltonian_x(sign, phi, 1.0), hamiltonian_const(sign, phi)
            ) < 1e-15
            assert residual(
                hamiltonian_x(sign, phi, 0.0), 2.0 * hamiltonian_const(sign, phi)
            ) < 1e-15


def test_hamiltonian_x_hermitian():
    for x in (0.2, 1.0, 5.0):
        h = hamiltonian_x("-", 0.8, x)
        assert residual(h, dagger(h)) < 1e-12


def test_generator_fd_known_generator():
    family = lambda t: expm(-1j * SZ * t)
    assert residual(generator_fd(family, 0.7, 1e-5), SZ) < 1e-8


def test_generator_fd_spectral_family_at_one():
    for sign in ("+", "-"):
        family = lambda t: build_R_x_normalized(sign, 0.0, t)
        got = generator_fd(family, 1.0, 1e-5)
        assert residual(got, hamiltonian_const(sign, 0.0)) < 1e-6


def test_generator_fd_spectral_family_matches_hamiltonian_x():
    family = lambda t: build_R_x_normalized("+", 0.4, t)
    for x in (0.3, 2.0):
        assert residual(generator_fd(family, x, 1e-5), hamiltonian_x("+", 0.4, x)) < 1e-6


def test_generator_fd_angle_family_is_theta_independent():
    for sign in ("+", "-"):
        for phi in (0.0, 1.1):
            family = lambda t: build_R_theta(sign, phi, t)
            early = generator_fd(family, 0.2, 1e-5)
            late = generator_fd(family, 0.9, 1e-5)
            assert residual(early, late) < 1e-6
            # The angle-family generator carries a constant factor of two
            # relative to hamiltonian_const; record it rather than hide it.
            assert residual(early, 2.0 * hamiltonian_const(sign, phi)) < 1e-6
            assert residual(early, hamiltonian_const(sign, phi)) > 0.4


def test_sigma_axis_examples():
    assert residual(sigma_axis(0.0), SX) == 0.0
    assert residual(sigma_axis(math.pi / 2), SY) < 1e-15
    alpha1, _ = axis_angle_pair(0.0)
    assert residual(sigma_axis(alpha1), SY) < 1e-15


def test_sigma_axis_involutory_traceless():
    for alpha in np.linspace(0.0, 2.0 * math.pi, 9):
        s = sigma_axis(float(alpha))
        assert residual(s @ s, I2) < 1e-15
        assert abs(np.trace(s)) < 1e-15
        assert residual(s, dagger(s)) < 1e-15


def test_pauli_decompose_hamiltonian():
    d = pauli_decompose(hamiltonian_const("+", 0.0))
    assert d.nonzero() == {("y", "x"): pytest.approx(0.5)}


def test_pauli_decompose_identity():
    d = pauli_decompose(I4)
    assert d.nonzero() == {("I", "I"): pytest.approx(1.0)}


def test_pauli_decompose_reconstruction():
    rng = np.random.default_rng(13)
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    assert residual(pauli_decompose(m).reconstruct(), m) < 1e-12


def _pauli_decompose_oracle(m):
    # The 16 separate traces the stacked pauli_decompose replaced.
    paulis = (I2, SX, SY, SZ)
    coeffs = np.empty((4, 4), dtype=complex)
    for i, a in enumerate(paulis):
        for j, b in enumerate(paulis):
            coeffs[i, j] = np.trace(kron(a, b) @ m) / 4.0
    return coeffs


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-6, 1e6))
def test_pauli_decompose_bit_identical_to_trace_oracle(seed, scale):
    rng = np.random.default_rng(seed)
    m = scale * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert np.array_equal(pauli_decompose(m).coefficients, _pauli_decompose_oracle(m))


@pytest.mark.parametrize("sign", ["+", "-"])
def test_pauli_decompose_hamiltonians_bit_identical_to_trace_oracle(sign):
    for phi in PHI_GRID:
        for h in (hamiltonian_const(sign, phi), hamiltonian_x(sign, phi, 0.37)):
            assert np.array_equal(pauli_decompose(h).coefficients, _pauli_decompose_oracle(h))


def test_pauli_decompose_hermitian_coefficients_real():
    d = pauli_decompose(hamiltonian_const("-", 0.9))
    assert float(np.max(np.abs(d.coefficients.imag))) < 1e-15


@pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi])
def test_axis_form_coefficients(phi):
    alpha1, alpha2 = axis_angle_pair(phi)
    expected = 0.5 * kron(sigma_axis(alpha1), sigma_axis(alpha2))
    assert residual(hamiltonian_const("+", phi), expected) < 1e-12
    swapped = 0.5 * kron(sigma_axis(alpha2), sigma_axis(alpha1))
    assert residual(hamiltonian_const("-", phi), swapped) < 1e-12


def test_evolution_examples():
    assert residual(evolution_U("+", 0.3, 0.0), I4) == 0.0
    assert residual(evolution_U("+", 0.0, math.pi), -1j * kron(SY, SX)) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_evolution_matches_exponential(sign):
    for phi in (0.0, 1.3):
        op = interaction_operator(sign, phi)
        for theta in np.linspace(0.0, 2.0 * math.pi, 9):
            theta = float(theta)
            assert residual(evolution_U(sign, phi, theta), expm(-0.5j * theta * op)) < 1e-12


def test_R_from_H_examples():
    assert residual(R_from_H("+", 2.2, math.pi / 4), I4) < 1e-15
    got = R_from_H("-", 0.0, 0.0)
    assert residual(got, build_b_phi("-", 0.0)) < 1e-12
    assert residual(got, expm(0.25j * math.pi * kron(SX, SY))) < 1e-12


@pytest.mark.parametrize("sign", ["+", "-"])
def test_R_from_H_equals_angle_family(sign):
    for phi in PHI_GRID:
        for theta in np.linspace(-1.0, 1.5, 6):
            theta = float(theta)
            assert residual(R_from_H(sign, phi, theta), build_R_theta(sign, phi, theta)) < 1e-12
            exponent = 1j * (math.pi / 2.0 - 2.0 * theta) * hamiltonian_const(sign, phi)
            assert residual(R_from_H(sign, phi, theta), expm(exponent)) < 1e-12


def test_schrodinger_residual_examples():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    bell = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    assert schrodinger_residual("-", 0.0, ket00, 1.0, 1e-5) < 1e-6
    assert schrodinger_residual("+", math.pi / 3, bell, 0.4, 1e-5) < 1e-6


def test_schrodinger_residual_second_order():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    coarse = schrodinger_residual("+", 0.3, ket00, 0.7, 1e-2)
    fine = schrodinger_residual("+", 0.3, ket00, 0.7, 1e-3)
    assert coarse / fine >= 50.0


def _schrodinger_oracle(sign, phi, psi0, x, h):
    # The one-state defect, built point by point.
    def psi(t):
        return build_R_x_normalized(sign, phi, t) @ psi0

    lhs = 1j * (psi(x + h) - psi(x - h)) / (2.0 * h)
    return float(np.linalg.norm(lhs - hamiltonian_x(sign, phi, x) @ psi(x)))


@given(
    sign=st.sampled_from(["+", "-"]),
    phi=st.floats(0.0, 2.0 * math.pi),
    x=st.floats(-3.0, 3.0),
    h=st.sampled_from([1e-3, 1e-5, 1e-7]),
    count=st.integers(1, 9),
    seed=st.integers(0, 2**32 - 1),
)
def test_schrodinger_residuals_bit_identical_to_oracle(sign, phi, x, h, count, seed):
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    got = schrodinger_residuals(sign, phi, states, x, h)
    assert got.shape == (count,)
    expected = [_schrodinger_oracle(sign, phi, psi0, x, h) for psi0 in states]
    assert np.array_equal(got, expected)
    assert schrodinger_residual(sign, phi, states[0], x, h) == expected[0]


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("part", [1.0, 1.0j])
def test_pauli_decompose_refuses_nonfinite(bad, part):
    m = hamiltonian_const("+", 0.3)
    m[2, 1] = bad * part if not math.isnan(bad) else complex(bad, 0) * part
    with pytest.raises(ValueError, match="non-finite"):
        pauli_decompose(m)


def test_pauli_decompose_refuses_other_shapes():
    for shape in ((3, 3), (5, 5), (2, 4, 4), (16,)):
        with pytest.raises(ValueError):
            pauli_decompose(np.zeros(shape, dtype=complex))
