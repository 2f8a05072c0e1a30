"""Hamiltonians generating the unitary braid families, their Pauli and
axis forms, and finite-difference oracles for checking them.

The constant Hamiltonian is -(i/2) b(phi)^2 for the unitary braid matrix
b(phi); it squares to I/4 and generates the angle family through
exp(i (pi/2 - 2 theta) H). The spectral family is generated by the
x-dependent rescaling -i b(phi)^2 / (1 + x^2), which reduces to the
constant Hamiltonian at x = 1. Both statements are checkable here with
generator_fd, a convention-free central-difference generator.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .eightvertex import _b_phi, build_R_x_normalized_stack, sign_value
from .linalg import DimensionMismatchError, _eye, dagger, kron, map_floats
from .paulis import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z, SQRT2

DEFAULT_FD_STEP = 1e-5

PAULI_LABELS = ("I", "x", "y", "z")
# _PAULI_PRODUCTS[a, b] is sigma_a (x) sigma_b, indexed as PAULI_LABELS.
_PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PRODUCTS = np.array([[kron(a, b) for b in _PAULIS] for a in _PAULIS])


def hamiltonian_form(b: np.ndarray, x) -> np.ndarray:
    """-i b^2 / (1 + x^2) for the unitary b(phi), written only here: one matrix
    and a float x, or a stack (..., 4, 4) and an x that broadcasts against it.
    b's eigenvalues exp(-+ i pi/4) give b^2 = sqrt(2) b - I, with no product."""
    return (SQRT2 * b - _eye(4)) * (-1j / (1.0 + x * x))


def hamiltonian_const(sign: str, phi: float) -> np.ndarray:
    """Constant Hamiltonian -(i/2) b(phi)^2; Hermitian with square I/4."""
    return hamiltonian_x(sign, phi, 1.0)


def hamiltonian_x(sign: str, phi: float, x: float) -> np.ndarray:
    """Spectral-parameter Hamiltonian -i b(phi)^2 / (1 + x^2), which is
    hamiltonian_const at x = 1 and for real x generates the normalized
    spectral family. Raises OverflowError, naming x, if 1 + x^2 overflows."""
    if math.isinf(1.0 + x * x):
        raise OverflowError(f"H(x) = -i b(phi)^2 / (1 + x^2) overflows at x={x!r}")
    return hamiltonian_form(_b_phi(sign, phi), x)


def generator_fd(
    family: Callable[[float], np.ndarray], t: float, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference generator i * dU/dt * U^dagger of a unitary family."""
    derivative = (family(t + h) - family(t - h)) / (2.0 * h)
    return 1j * derivative @ dagger(family(t))


def axis_angle_pair(phi: float) -> tuple[float, float]:
    """The two xy-plane axis angles (pi + phi)/2 and phi/2 of the coupling."""
    return (math.pi + phi) / 2.0, phi / 2.0


def sigma_axis(alpha) -> np.ndarray:
    """Pauli projection onto the xy-plane direction at angle alpha, or their
    stack alpha.shape + (2, 2) over an array of angles.

    sigma_plus * exp(-i alpha) + sigma_minus * exp(i alpha); Hermitian,
    traceless, and involutory.
    """
    alpha = alpha[..., None, None] if isinstance(alpha, np.ndarray) else alpha
    return SIGMA_PLUS * np.exp(-1j * alpha) + SIGMA_MINUS * np.exp(1j * alpha)


@dataclass(frozen=True)
class PauliDecomposition:
    """Coefficients of a 4x4 matrix in the two-qubit Pauli basis.

    ``coefficients[a, b]`` multiplies sigma_a (x) sigma_b with rows and
    columns ordered as PAULI_LABELS. Hermitian inputs have real
    coefficients.
    """

    coefficients: np.ndarray

    def coefficient(self, a: str, b: str) -> complex:
        return complex(
            self.coefficients[PAULI_LABELS.index(a), PAULI_LABELS.index(b)]
        )

    def nonzero(self, tol: float = 1e-12) -> dict[tuple[str, str], complex]:
        """Coefficients with magnitude above tol, keyed by label pair."""
        return {
            (a, b): self.coefficient(a, b)
            for a in PAULI_LABELS
            for b in PAULI_LABELS
            if abs(self.coefficient(a, b)) > tol
        }

    def reconstruct(self) -> np.ndarray:
        """Sum the weighted Pauli products back into the source matrix."""
        products = _PAULI_PRODUCTS.reshape(16, 4, 4)
        total = np.zeros((4, 4), dtype=complex)
        for c, product in zip(self.coefficients.ravel(), products):
            total += c * product
        return total


@functools.cache
def _pauli_gather() -> tuple[np.ndarray, np.ndarray]:
    """Row i of sigma_a (x) sigma_b has one non-zero entry, a unit value
    (+-1 or +-i) in column k: values[a, b, i] is that entry, and
    index[a, b, i] = 4k + i is the flat index of the m[k, i] it multiplies
    on the diagonal of the product with m. Built once, read-only."""
    columns = np.argmax(np.abs(_PAULI_PRODUCTS), axis=-1)
    values = np.take_along_axis(_PAULI_PRODUCTS, columns[..., None], axis=-1)[..., 0]
    index = 4 * columns + np.arange(4)
    values.flags.writeable = index.flags.writeable = False
    return values, index


def pauli_decompose(m: np.ndarray) -> PauliDecomposition:
    """Expand a 4x4 matrix as sum c_ab sigma_a (x) sigma_b.

    c_ab = tr(sigma_a (x) sigma_b . m) / 4. Each diagonal entry of the
    product is a single unit-valued term, so the traces are gathered from m
    rather than multiplied out: the terms are exact and reduced over the
    diagonal as np.trace reduces it, which gives the dense products' bits,
    signed zeros included. Non-finite entries are refused.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("Pauli decomposition of non-finite entries")
    values, index = _pauli_gather()
    coeffs = (values * m.take(index)).sum(axis=-1) / 4.0
    return PauliDecomposition(coefficients=coeffs)


def interaction_operator(sign: str, phi) -> np.ndarray:
    """The axis coupling sigma_n1 (x) sigma_n2 (order swapped for '-'), or
    its stack phi.shape + (4, 4) over an array of angles."""
    alpha1, alpha2 = axis_angle_pair(phi)
    first, second = sigma_axis(alpha1), sigma_axis(alpha2)
    return kron(first, second) if sign_value(sign) > 0 else kron(second, first)


def evolution_form(op: np.ndarray, theta) -> np.ndarray:
    """cos(theta/2) I - i sin(theta/2) op, which is exp(-i theta op / 2) for
    an involutory op, written only here: one matrix and a float theta, or a
    stack (..., 4, 4) and a theta array that broadcasts against it. The
    coefficients are math.cos and math.sin of each theta / 2."""
    half = theta / 2.0
    return map_floats(math.cos, half) * _eye(4) - 1j * map_floats(math.sin, half) * op


def evolution_U(sign: str, phi: float, theta: float) -> np.ndarray:
    """Evolution operator cos(theta/2) I - i sin(theta/2) times the coupling."""
    return evolution_form(interaction_operator(sign, phi), theta)


def r_from_h_form(h: np.ndarray, theta) -> np.ndarray:
    """exp(i (pi/2 - 2 theta) h) for h^2 = I/4, written only here as
    cos(pi/4 - theta) I + 2i sin(pi/4 - theta) h; theta as in angle_form."""
    u = math.pi / 4.0 - theta
    return map_floats(math.cos, u) * _eye(4) + 2j * map_floats(math.sin, u) * h


def R_from_H(sign: str, phi: float, theta: float) -> np.ndarray:
    """Angle family from its Hamiltonian, exp(i (pi/2 - 2 theta) H); matches
    build_R_theta to rounding."""
    return r_from_h_form(hamiltonian_const(sign, phi), theta)


def _row_sums(p: np.ndarray) -> np.ndarray:
    """Sum over a last axis of length 4, left to right on every CPU."""
    return p[..., 0] + p[..., 1] + p[..., 2] + p[..., 3]


def _product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The product a b of two (..., 4, 4) stacks that broadcast, each entry
    summed over k by _row_sums, so its bits depend on no BLAS kernel."""
    return _row_sums(a[..., :, None, :] * np.swapaxes(b, -1, -2)[..., None, :, :])


def schrodinger_residuals(
    sign, phi: np.ndarray, states: np.ndarray, x: np.ndarray, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Defect of i d/dx psi(x) = H(x) psi(x) for psi(x) = R(x) psi0, one per
    row psi0 of an (M, 4) array of states; the labels (as in build_b_stack),
    phi and x broadcast to a shape S, and the result has shape S + (M,).

    psi evolves under the normalized (unitary) spectral family so its norm
    is conserved; the derivative is the central difference at step h and
    the defect is the euclidean norm of the difference. Every product is
    summed by _row_sums, so the bits depend on no BLAS kernel.
    """
    states = np.asarray(states, dtype=complex)
    if states.shape[1:] != (4,):
        raise DimensionMismatchError(f"expected (M, 4) states, got shape {states.shape}")
    xs = np.broadcast_to(np.asarray(x, dtype=float), np.broadcast(sign, phi, x).shape)
    # R(x+h), R(x-h), R(x) and R(0), which is b(phi) bit for bit: H(x)'s b.
    at = np.stack([xs + h, xs - h, xs, np.zeros_like(xs)])
    family = build_R_x_normalized_stack(sign, phi, at)
    # Each S + (M, 4): R(x+h), R(x-h) and R(x) applied to every state.
    plus, minus, psi = _row_sums(family[:3, ..., None, :, :] * states[:, None])
    h_of_x = hamiltonian_form(family[3], xs[..., None, None])[..., None, :, :]
    defects = 1j * (plus - minus) / (2.0 * h) - _row_sums(h_of_x * psi[..., None, :])
    return np.sqrt(_row_sums(defects.real**2 + defects.imag**2))
