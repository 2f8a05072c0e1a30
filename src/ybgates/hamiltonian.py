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

from .eightvertex import build_b_phi, build_R_x_normalized_stack, sign_value
from .linalg import DimensionMismatchError, _eye, dagger, kron
from .paulis import IDENTITY_2, SIGMA_MINUS, SIGMA_PLUS, SIGMA_X, SIGMA_Y, SIGMA_Z

DEFAULT_FD_STEP = 1e-5

PAULI_LABELS = ("I", "x", "y", "z")
# _PAULI_PRODUCTS[a, b] is sigma_a (x) sigma_b, indexed as PAULI_LABELS.
_PAULIS = (IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z)
_PAULI_PRODUCTS = np.array([[kron(a, b) for b in _PAULIS] for a in _PAULIS])


def hamiltonian_const(sign: str, phi: float) -> np.ndarray:
    """Constant Hamiltonian -(i/2) b(phi)^2; Hermitian with square I/4."""
    b = build_b_phi(sign, phi)
    return -0.5j * (b @ b)


def hamiltonian_x(sign: str, phi: float, x: float) -> np.ndarray:
    """Spectral-parameter Hamiltonian -i b(phi)^2 / (1 + x^2).

    Equals 2 / (1 + x^2) times the constant Hamiltonian, so x = 1
    reproduces hamiltonian_const exactly. For real x this is the
    central-difference generator of the normalized spectral family.
    """
    b = build_b_phi(sign, phi)
    return -1j * (b @ b) / (1.0 + x * x)


def generator_fd(
    family: Callable[[float], np.ndarray], t: float, h: float = DEFAULT_FD_STEP
) -> np.ndarray:
    """Central-difference generator i * dU/dt * U^dagger of a unitary family."""
    derivative = (family(t + h) - family(t - h)) / (2.0 * h)
    return 1j * derivative @ dagger(family(t))


def axis_angle_pair(phi: float) -> tuple[float, float]:
    """The two xy-plane axis angles (pi + phi)/2 and phi/2 of the coupling."""
    return (math.pi + phi) / 2.0, phi / 2.0


def sigma_axis(alpha: float) -> np.ndarray:
    """Pauli projection onto the xy-plane direction at angle alpha.

    sigma_plus * exp(-i alpha) + sigma_minus * exp(i alpha); Hermitian,
    traceless, and involutory.
    """
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
    signed zeros included. Non-finite entries are refused, as by expm.
    """
    m = np.asarray(m, dtype=complex)
    if m.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError("Pauli decomposition of non-finite entries")
    values, index = _pauli_gather()
    coeffs = (values * m.take(index)).sum(axis=-1) / 4.0
    return PauliDecomposition(coefficients=coeffs)


def interaction_operator(sign: str, phi: float) -> np.ndarray:
    """The axis coupling sigma_n1 (x) sigma_n2 (order swapped for '-')."""
    s = sign_value(sign)
    alpha1, alpha2 = axis_angle_pair(phi)
    first, second = sigma_axis(alpha1), sigma_axis(alpha2)
    return kron(first, second) if s > 0 else kron(second, first)


def evolution_U(sign: str, phi: float, theta: float) -> np.ndarray:
    """Evolution operator cos(theta/2) I - i sin(theta/2) times the coupling."""
    op = interaction_operator(sign, phi)
    return math.cos(theta / 2.0) * _eye(4) - 1j * math.sin(theta / 2.0) * op


def R_from_H(sign: str, phi: float, theta: float) -> np.ndarray:
    """Angle family from its Hamiltonian: exp(i (pi/2 - 2 theta) H).

    Evaluated in closed form as cos(pi/4 - theta) I plus
    2i sin(pi/4 - theta) H, which matches build_R_theta exactly.
    """
    h = hamiltonian_const(sign, phi)
    u = math.pi / 4.0 - theta
    return math.cos(u) * _eye(4) + 2j * math.sin(u) * h


def schrodinger_residuals(
    sign: str,
    phi: float,
    states: np.ndarray,
    x: float,
    h: float = DEFAULT_FD_STEP,
) -> np.ndarray:
    """Defect of i d/dx psi(x) = H(x) psi(x) for psi(x) = R(x) psi0, one per
    row psi0 of an (M, 4) array of states; the result has shape (M,).

    psi evolves under the normalized (unitary) spectral family so its norm
    is conserved; the derivative is the central difference at step h and
    the defect is the euclidean norm of the difference. R(x+h), R(x-h) and
    R(x) are built as one stack and, like H(x), applied to all states at once.
    """
    columns = np.asarray(states, dtype=complex)[:, :, None]
    family = build_R_x_normalized_stack(sign, phi, np.array([x + h, x - h, x]))
    psi_plus, psi_minus, psi = np.matmul(family[:, None], columns)
    lhs = 1j * (psi_plus - psi_minus)[..., 0] / (2.0 * h)
    rhs = np.matmul(hamiltonian_x(sign, phi, x), psi)[..., 0]
    return np.array([np.linalg.norm(row) for row in lhs - rhs])


def schrodinger_residual(
    sign: str,
    phi: float,
    psi0: np.ndarray,
    x: float,
    h: float = DEFAULT_FD_STEP,
) -> float:
    """schrodinger_residuals for the single state psi0."""
    psi0 = np.asarray(psi0, dtype=complex)
    return float(schrodinger_residuals(sign, phi, psi0[None], x, h)[0])
