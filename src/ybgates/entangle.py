"""Two-qubit pure states, gate action, Bell states, and the entangling
test that certifies universality.

A two-qubit gate is universal together with single-qubit gates exactly
when it maps some product state to an entangled one, so the detector here
scans product states and measures the concurrence of the output. A
positive verdict is certified by the witness state it returns; a negative
verdict is grid evidence, not a proof.

The scan is batched: the one fixed set of 100 probe states is built once
per process, on first use, as a read-only (100, 4) array, and each call
applies the gate to all of them in one stacked product and computes every
concurrence in one vectorised pass. Verdicts, maxima and witnesses are
bit-identical to applying the gate and concurrence() state by state.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .eightvertex import angle_form, build_b_phi, build_b_phi_stack, build_R_theta
from .linalg import DimensionMismatchError, read_only
from .linalg import unitarity_residual, unitarity_residuals
from .paulis import DEFAULT_SEED, SQRT2

DEFAULT_THRESHOLD = 1e-9
_UNITARY_TOL = 1e-10


class NonUnitaryGateError(ValueError):
    """Gate argument is not unitary to the required tolerance."""


def basis_state(index: int) -> np.ndarray:
    """Computational basis state |00>, |01>, |10>, |11> for index 0..3.

    The index must be an integer (numpy integers too); a bool, which numpy
    would take as a mask, or a float is refused with ValueError.
    """
    try:
        i = None if isinstance(index, bool) else operator.index(index)
    except TypeError:
        i = None
    if i not in (0, 1, 2, 3):
        raise ValueError(f"basis index must be an integer 0..3, got {index!r}")
    state = np.zeros(4, dtype=complex)
    state[i] = 1.0
    return state


def _require_unitary(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=complex)
    if gate.shape != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 gate, got shape {gate.shape}")
    defect = unitarity_residual(gate)
    # Written so that a NaN defect (from NaN or inf entries) fails too.
    if not defect < _UNITARY_TOL:
        raise NonUnitaryGateError(f"gate is not unitary (residual {defect:.3e})")
    return gate


def apply_gate(gate: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Apply a unitary 4x4 gate to a two-qubit state vector."""
    gate = _require_unitary(gate)
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise DimensionMismatchError(f"expected a two-qubit state of shape (4,), got {psi.shape}")
    return gate @ psi


def bell_from_b(sign: str, phi: float, basis_index: int) -> np.ndarray:
    """Maximally entangled state from the braid gate on a basis state.

    The four outputs are (|00> - e^{i phi}|11>)/sqrt2, (|01> -+ |10>)/sqrt2,
    (+-|01> + |10>)/sqrt2, and (e^{-i phi}|00> + |11>)/sqrt2; at phi = 0
    these are the Bell states.
    """
    return apply_gate(build_b_phi(sign, phi), basis_state(basis_index))


def r_theta_action(sign: str, phi: float, theta: float, basis_index: int) -> np.ndarray:
    """Angle-family gate applied to a basis state.

    Produces the cos(pi/4 - theta) / sin(pi/4 - theta) combinations whose
    concurrence is |cos 2 theta|, so theta = pi/4 is the unique point in
    [0, pi/2] where the output stays unentangled.
    """
    return apply_gate(build_R_theta(sign, phi, theta), basis_state(basis_index))


def r_theta_concurrences(sign: str, phi: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """concurrence(r_theta_action(sign, p, t, 0)) for each pair (p, t) of
    phi and theta broadcast together, bit for bit: both go through
    angle_form, as build_R_theta does, and a gate's first column is its
    action on |00>. Raises NonUnitaryGateError for the first non-unitary gate."""
    theta = np.asarray(theta, dtype=float)[..., None, None]
    gates = angle_form(build_b_phi_stack(sign, phi), theta).reshape(-1, 4, 4)
    defects = unitarity_residuals(gates)
    failed = np.flatnonzero(~(defects < _UNITARY_TOL))
    if len(failed):
        raise NonUnitaryGateError(f"gate is not unitary (residual {defects[failed[0]]:.3e})")
    return _concurrences(gates[:, :, 0])


def concurrence(psi: np.ndarray) -> float:
    """Pure-state concurrence 2 |a00 a11 - a01 a10| of a unit vector."""
    psi = np.asarray(psi, dtype=complex)
    if psi.shape != (4,):
        raise DimensionMismatchError(f"expected a two-qubit state of shape (4,), got {psi.shape}")
    return 2.0 * abs(psi[0] * psi[3] - psi[1] * psi[2])


@functools.cache
def _probe_stack() -> np.ndarray:
    """The fixed probe set as one read-only (100, 4) array: all 36 pairs of
    the Pauli eigenstates |0>, |1>, |+>, |->, |+i>, |-i>, then 64
    pseudorandom product states drawn from DEFAULT_SEED, each the outer
    product u (x) v of its factors. The random factors, drawn u then v, are
    normalised by a sum of squares, not np.linalg.norm's BLAS dot, so the
    bytes are the same on every OpenBLAS kernel."""
    factors = np.array([[1, 0], [0, 1], [1, 1], [1, -1], [1, 1j], [1, -1j]], dtype=complex)
    factors[2:] /= SQRT2
    rng = np.random.default_rng(DEFAULT_SEED)
    d = np.array([rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(128)])
    d /= np.sqrt((d.real**2).sum(axis=1) + (d.imag**2).sum(axis=1))[:, None]
    u = np.concatenate([np.repeat(factors, 6, axis=0), d[0::2]])
    v = np.concatenate([np.tile(factors, (6, 1)), d[1::2]])
    return read_only((u[:, :, None] * v[:, None, :]).reshape(-1, 4))


def _concurrences(states: np.ndarray) -> np.ndarray:
    """concurrence() of each row of an (n, 4) stack, bit for bit.

    The determinant is spelled out in real and imaginary parts, as the
    scalar complex product computes it, and its modulus is taken with
    hypot, as abs() of a complex scalar does.
    """
    a, b, c, d = states.T
    re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
    im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
    return 2.0 * np.hypot(re, im)


@dataclass(frozen=True)
class EntanglingVerdict:
    """Outcome of the product-state scan.

    ``entangling`` True is sound: ``witness`` is an output state whose
    concurrence exceeds the threshold. False only says no probed product
    state got entangled; for the gate families built here the closed-form
    concurrence makes that verdict exact in practice.
    """

    entangling: bool
    witness: np.ndarray | None
    concurrence_max: float


def is_entangling(gate: np.ndarray) -> EntanglingVerdict:
    """Scan the probe states and report the most entangling output found;
    the gate is entangling if its maximum exceeds DEFAULT_THRESHOLD.

    The witness is the first probe output of maximal concurrence, in
    probe order, and is returned as a fresh array.
    """
    gate = _require_unitary(gate)
    # The stacked product rounds exactly as gate @ state does per state;
    # probes @ gate.T would not.
    out = np.matmul(gate, _probe_stack()[:, :, None])[:, :, 0]
    c = _concurrences(out)
    k = int(np.argmax(c))
    best = float(c[k])
    entangling = best > DEFAULT_THRESHOLD
    return EntanglingVerdict(
        entangling=entangling,
        witness=out[k].copy() if entangling else None,
        concurrence_max=best,
    )
