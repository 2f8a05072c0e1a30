"""Hamiltonian extraction, Pauli/axis forms, and finite-difference oracles."""

import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from expm_series import expm
from ybgates.eightvertex import (
    build_b_phi,
    build_b_phi_stack,
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
    hamiltonian_form,
    hamiltonian_x,
    interaction_operator,
    pauli_decompose,
    r_from_h_form,
    schrodinger_residuals,
    sigma_axis,
)
from ybgates.linalg import DimensionMismatchError, dagger, kron, residual

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


@pytest.mark.parametrize("sign", ["+", "-"])
def test_hamiltonian_const_closed_form_entries_are_exact(sign):
    # sqrt(2) b - I has an exact zero diagonal and inner entries +-s, so H
    # is -(i/2) times them with no rounding left over from a matrix product.
    s = sign_value(sign)
    for phi in [0.0, -0.0, math.pi] + np.linspace(-7.0, 7.0, 57).tolist():
        h = hamiltonian_const(sign, phi)
        assert np.all(np.diag(h) == 0)
        assert h[1, 2] == -0.5j * s and h[2, 1] == 0.5j * s
        assert h.tobytes() == hamiltonian_x(sign, phi, 1.0).tobytes()


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(-7.0, 7.0), min_size=1, max_size=4),
    xs=st.lists(st.floats(-1e150, 1e150), min_size=1, max_size=4),
)
def test_hamiltonian_form_stack_bit_identical_to_hamiltonian_x(sign, phis, xs):
    # phi runs down a column and x along a row, so they broadcast to a grid.
    b = build_b_phi_stack(sign, np.array(phis)[:, None])
    got = hamiltonian_form(b, np.array(xs)[:, None, None])
    assert got.shape == (len(phis), len(xs), 4, 4)
    expected = [[hamiltonian_x(sign, phi, x) for x in xs] for phi in phis]
    assert got.tobytes() == np.array(expected).tobytes()


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


# Seeded angles and the special ones: signed zeros, +-pi, a large angle,
# the smallest subnormal and both phi grids verify uses.
_STACK_PHIS = np.concatenate([
    np.random.default_rng(3201).uniform(-1e3, 1e3, 2000),
    [0.0, -0.0, math.pi, -math.pi, 1e16, 5e-324, -5e-324],
    2.0 * math.pi * np.arange(8) / 8,
    2.0 * math.pi * np.arange(33) / 33,
])


def test_stacked_sigma_axis_and_interaction_operator_bit_identical_to_scalar():
    # One call over an array of angles gives each angle's matrix, by the bytes.
    alphas = _STACK_PHIS.reshape(-1, 2)
    got = sigma_axis(alphas)
    assert got.shape == alphas.shape + (2, 2)
    for index in np.ndindex(alphas.shape):
        assert got[index].tobytes() == sigma_axis(float(alphas[index])).tobytes()
    for sign in "+-":
        got = interaction_operator(sign, _STACK_PHIS)
        assert got.shape == (len(_STACK_PHIS), 4, 4)
        for k, phi in enumerate(_STACK_PHIS.tolist()):
            assert got[k].tobytes() == interaction_operator(sign, phi).tobytes()


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


def test_r_from_h_form_stack_bit_identical_to_R_from_H():
    # Signs down the first axis, phi down the second and theta along the
    # third, with theta seeded in [-1e3, 1e3] and special; each matrix has
    # the bytes of the one-matrix call at float theta.
    signs, phis = np.array(["+", "-"]), np.array([0.0, -0.0, 0.9, -2.2, 5e-324])
    thetas = np.concatenate([
        np.random.default_rng(3304).uniform(-1e3, 1e3, 60),
        [0.0, -0.0, math.pi / 4, -math.pi / 4, 1e16, 5e-324, -5e-324],
    ])
    h = hamiltonian_form(build_b_phi_stack(signs[:, None, None], phis[:, None]), 1.0)
    got = r_from_h_form(h, thetas[:, None, None])
    assert got.shape == (len(signs), len(phis), len(thetas), 4, 4)
    for k, m, n in np.ndindex(got.shape[:3]):
        want = R_from_H(signs[k], float(phis[m]), float(thetas[n]))
        assert got[k, m, n].tobytes() == want.tobytes()


def test_schrodinger_residual_examples():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    bell = np.array([0, 1, 1, 0], dtype=complex) / math.sqrt(2)
    assert float(schrodinger_residuals("-", 0.0, [ket00], 1.0, 1e-5)[0]) < 1e-6
    assert float(schrodinger_residuals("+", math.pi / 3, [bell], 0.4, 1e-5)[0]) < 1e-6


def test_schrodinger_residual_second_order():
    ket00 = np.array([1, 0, 0, 0], dtype=complex)
    coarse = float(schrodinger_residuals("+", 0.3, [ket00], 0.7, 1e-2)[0])
    fine = float(schrodinger_residuals("+", 0.3, [ket00], 0.7, 1e-3)[0])
    assert coarse / fine >= 50.0


def _schrodinger_oracle(sign, phi, psi0, x, h):
    # The one-state defect, built point by point. Each matrix-vector product
    # and the squared norm are elementwise products summed left to right.
    def apply(m, v):
        p = m * v
        return p[:, 0] + p[:, 1] + p[:, 2] + p[:, 3]

    def psi(t):
        return apply(build_R_x_normalized(sign, phi, t), psi0)

    lhs = 1j * (psi(x + h) - psi(x - h)) / (2.0 * h)
    d = lhs - apply(hamiltonian_x(sign, phi, x), psi(x))
    squares = d.real**2 + d.imag**2
    return float(np.sqrt(squares[0] + squares[1] + squares[2] + squares[3]))


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
    assert float(schrodinger_residuals(sign, phi, [states[0]], x, h)[0]) == expected[0]


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=3),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=4),
    h=st.sampled_from([1e-3, 1e-5, 1e-7]),
    count=st.integers(0, 5),
    seed=st.integers(0, 2**32 - 1),
)
def test_stacked_schrodinger_residuals_bit_identical_to_single_points(
    sign, phis, xs, h, count, seed
):
    # phi runs down a column and x along a row, so they broadcast to a grid.
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    got = schrodinger_residuals(sign, np.array(phis)[:, None], states, np.array(xs), h)
    assert got.shape == (len(phis), len(xs), count)
    singles = [[schrodinger_residuals(sign, phi, states, x, h) for x in xs] for phi in phis]
    assert got.tobytes() == np.array(singles).reshape(got.shape).tobytes()
    # The stacked sums give the per-point oracle's bits, row by row.
    norms = [
        [[_schrodinger_oracle(sign, phi, psi0, x, h) for psi0 in states] for x in xs]
        for phi in phis
    ]
    assert got.tobytes() == np.array(norms).reshape(got.shape).tobytes()


@given(
    phis=st.lists(st.floats(0.0, 2.0 * math.pi), min_size=1, max_size=3),
    xs=st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
    count=st.integers(0, 3),
    seed=st.integers(0, 2**32 - 1),
)
@example(phis=[0.0, -0.0, 5e-324], xs=[-0.0, 1.0], count=2, seed=7)
def test_schrodinger_residuals_over_a_label_axis_are_each_labels(phis, xs, count, seed):
    # Labels down the first axis, phi down the second and x along the third.
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((count, 4)) + 1j * rng.standard_normal((count, 4))
    labels = np.array(["-", "+", "-"])[:, None, None]
    phi, x = np.array(phis)[:, None], np.array(xs)
    got = schrodinger_residuals(labels, phi, states, x)
    assert got.shape == (3, len(phis), len(xs), count)
    for k, label in enumerate("-+-"):
        assert got[k].tobytes() == schrodinger_residuals(label, phi, states, x).tobytes()
    with pytest.raises(ValueError, match="got 'x'"):
        schrodinger_residuals(np.array(["+", "x"])[:, None, None], phi, states, x)


@pytest.mark.parametrize("shape", [(4,), (2, 3), (2, 4, 1)])
def test_schrodinger_residuals_refuse_malformed_states(shape):
    with pytest.raises(DimensionMismatchError, match="expected \\(M, 4\\) states"):
        schrodinger_residuals("+", 0.3, np.ones(shape, dtype=complex), 0.7)


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
