"""Single-qubit gate constants, Bloch rotations, and the two routes that
synthesize CNOT from the entangling braid gate.

The first route conjugates the unitary braid matrix at phi = theta = 0 by
a fixed pair of local gates. The second drives the two-qubit evolution
operator to a z-x coupling with Bloch rotations, evolves for theta = pi/2,
and finishes with a phase gate; the phase gate's sign is fixed empirically
(diag(1, -i) lands on CNOT exactly, diag(1, i) misses by 2).

Each conjugation is one local frame L and its adjoint, L G L^dagger. The
x-axis quarter turn exp(i pi/4 sigma_x) and its adjoint are built once, at
import, with the evolution route's corrector. Gates that depend on no
argument (CNOT, the theorem-1 product) and each rotation axis's sigma . n
are built once per process, on first use, and kept read-only; the public
functions return fresh arrays.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass

import numpy as np

from .eightvertex import _b_phi
from .hamiltonian import axis_angle_pair, evolution_U, sigma_axis
from .linalg import DimensionMismatchError, kron, read_only, residual
from .paulis import IDENTITY_2, SIGMA_X, SIGMA_Y, SIGMA_Z, SQRT2

X_AXIS = (1.0, 0.0, 0.0)
Y_AXIS = (0.0, 1.0, 0.0)
Z_AXIS = (0.0, 0.0, 1.0)

# Resolved phase gate of the evolution route; the opposite sign diag(1, i)
# flips the target block and misses CNOT by a max-entry residual of 2.
CNOT_PHASE_GATE = np.diag([1.0 + 0.0j, -1.0j])


def _quarter_turn(generator: np.ndarray) -> np.ndarray:
    """exp(i pi/4 G) for an involutory G, as cos(pi/4) I + i sin(pi/4) G."""
    eye = np.eye(generator.shape[0], dtype=complex)
    return math.cos(math.pi / 4.0) * eye + 1j * math.sin(math.pi / 4.0) * generator


# exp(i pi/4 sigma_x) = rotation(X_AXIS, -pi/2); its adjoint is the +pi/2 turn.
_X_QUARTER_TURN = read_only(_quarter_turn(SIGMA_X))
_X_QUARTER_TURN_ADJOINT = read_only(_X_QUARTER_TURN.conj().T)

# Final local step of the evolution route: CNOT_PHASE_GATE (x) exp(i pi/4 sigma_x).
_EVOLUTION_CORRECTOR = kron(CNOT_PHASE_GATE, _X_QUARTER_TURN)


class NonUnitAxisError(ValueError):
    """Rotation axis must be a unit 3-vector."""


@dataclass(frozen=True)
class LocalGateSet:
    """The four single-qubit unitaries of the conjugation route."""

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    delta: np.ndarray


def local_gates() -> LocalGateSet:
    """Fixed local gates: alpha the Hadamard, delta the phase gate diag(1, i)."""
    alpha = np.array([[1, 1], [1, -1]], dtype=complex) / SQRT2
    beta = np.array([[-1, 1], [1j, 1j]], dtype=complex) / SQRT2
    gamma = np.array([[1, 1j], [1, -1j]], dtype=complex) / SQRT2
    delta = np.array([[1, 0], [0, 1j]], dtype=complex)
    return LocalGateSet(alpha=alpha, beta=beta, gamma=gamma, delta=delta)


def projectors() -> tuple[np.ndarray, np.ndarray]:
    """Rank-one projectors onto the +1 and -1 eigenstates of sigma_z."""
    return (
        np.diag([1.0 + 0.0j, 0.0]),
        np.diag([0.0 + 0.0j, 1.0]),
    )


@functools.cache
def _cnot() -> np.ndarray:
    return read_only(
        np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    )


def cnot() -> np.ndarray:
    """Controlled-NOT: P_up (x) I + P_down (x) sigma_x."""
    return _cnot().copy()


@functools.cache
def _theorem1() -> np.ndarray:
    g = local_gates()
    m = kron(g.alpha, g.beta)
    n = -kron(g.gamma, g.delta)
    return read_only(m @ _b_phi("-", 0.0) @ n)


def cnot_via_theorem1() -> np.ndarray:
    """CNOT as M . R . N with M = alpha (x) beta, N = -gamma (x) delta.

    R is the unitary braid gate build_b_phi('-', 0); the product equals
    cnot() exactly, with no global phase left over.
    """
    return _theorem1().copy()


@functools.lru_cache(maxsize=8)
def _sigma_dot(key: bytes) -> np.ndarray:
    """nx sigma_x + ny sigma_y + nz sigma_z, read-only, for the axis packed
    in key as three doubles. Keyed by bits, so -0.0 and 0.0 stay apart;
    bounded, as callers may pass any unit axis."""
    nx, ny, nz = struct.unpack("3d", key)
    return read_only(nx * SIGMA_X + ny * SIGMA_Y + nz * SIGMA_Z)


def rotation(axis: tuple[float, float, float], theta: float) -> np.ndarray:
    """Bloch rotation cos(theta/2) I - i sin(theta/2) (sigma . n).

    sigma . n is built once per distinct axis, its components read as
    doubles; each call returns a fresh array.
    """
    nx, ny, nz = axis
    norm = math.sqrt(nx * nx + ny * ny + nz * nz)
    if not abs(norm - 1.0) <= 1e-12:  # a NaN norm fails too
        raise NonUnitAxisError(f"axis norm {norm!r} is not 1")
    direction = _sigma_dot(struct.pack("3d", nx, ny, nz))
    return math.cos(theta / 2.0) * IDENTITY_2 - 1j * math.sin(theta / 2.0) * direction


def conjugation_identities(phi: float) -> tuple[float, float]:
    """Residuals of the two axis-straightening conjugations.

    First: Dx(pi/2) Dz(-phi/2) sigma_n1 Dz(phi/2) Dx(-pi/2) = sigma_z.
    Second: Dz(-phi/2) sigma_n2 Dz(phi/2) = sigma_x.
    """
    alpha1, alpha2 = axis_angle_pair(phi)
    dz = rotation(Z_AXIS, -phi / 2.0)
    first = _X_QUARTER_TURN_ADJOINT @ dz @ sigma_axis(alpha1) @ dz.conj().T @ _X_QUARTER_TURN
    second = dz @ sigma_axis(alpha2) @ dz.conj().T
    return residual(first, SIGMA_Z), residual(second, SIGMA_X)


def conjugate_to_zx(phi: float, theta: float) -> np.ndarray:
    """Rotate the '+' evolution operator into exp(-i (sigma_z x sigma_x) theta / 2)."""
    dz = rotation(Z_AXIS, -phi / 2.0)
    left = kron(_X_QUARTER_TURN_ADJOINT @ dz, dz)
    return left @ evolution_U("+", phi, theta) @ left.conj().T


def cnot_via_evolution(phi: float, theta: float = math.pi / 2.0) -> np.ndarray:
    """CNOT from the rotated evolution at theta = pi/2 plus local phases.

    Computes (CNOT_PHASE_GATE (x) exp(i pi/4 sigma_x)) applied to
    conjugate_to_zx(phi, theta). The result is independent of phi and
    equals cnot() exactly at the default theta; other theta values give a
    different gate and are accepted only so callers can probe that.
    """
    return _EVOLUTION_CORRECTOR @ conjugate_to_zx(phi, theta)


def transform_R_to_zx() -> np.ndarray:
    """Rotate exp(i pi/4 sigma_x x sigma_y) into exp(i pi/4 sigma_z x sigma_x)."""
    left = kron(rotation(Y_AXIS, -math.pi / 2.0), rotation(Z_AXIS, -math.pi / 2.0))
    core = _quarter_turn(kron(SIGMA_X, SIGMA_Y))
    return left @ core @ left.conj().T


def global_phase_between(
    candidate: np.ndarray, target: np.ndarray, tol: float = 1e-12
) -> complex | None:
    """Scalar z with |z| = 1 making z * candidate equal target, if one exists.

    The phase is read off the largest-magnitude entry of the candidate;
    returns None when no unit scalar brings the max-entry residual of the
    pair below tol. Raises DimensionMismatchError when the shapes differ.
    """
    candidate = np.asarray(candidate, dtype=complex)
    target = np.asarray(target, dtype=complex)
    if candidate.shape != target.shape:
        raise DimensionMismatchError(f"shape mismatch: {candidate.shape} vs {target.shape}")
    index = np.unravel_index(np.argmax(np.abs(candidate)), candidate.shape)
    pivot = candidate[index]
    if abs(pivot) < 1e-12 or abs(target[index]) < 1e-12:
        return None
    phase = target[index] / pivot
    phase /= abs(phase)
    if residual(phase * candidate, target) < tol:
        return complex(phase)
    return None
