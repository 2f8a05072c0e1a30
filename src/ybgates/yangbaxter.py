"""Residual checks for the braid relation and its spectral-parameter
generalization, plus the two-eigenvalue Baxterization connecting them.

A 4x4 matrix acting on two adjacent qubits lifts to three qubits as either
m (x) I or I (x) m; a stack of N such matrices lifts to N 8x8 matrices
the same way. Both relations checked here are identities between
products of such 8x8 lifts, and both checks return the max-entry residual
of the two sides so the caller picks the tolerance.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .linalg import DimensionMismatchError, inverse, kron, residuals
from .paulis import IDENTITY_2


def _lift_pair(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # np.kron pads the 2x2 identity with leading unit axes, so an
    # (N, 4, 4) stack lifts to an (N, 8, 8) stack.
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got {m.shape}")
    return kron(m, IDENTITY_2), kron(IDENTITY_2, m)


def braid_residuals(b: np.ndarray) -> np.ndarray:
    """Residuals of (b x I)(I x b)(b x I) = (I x b)(b x I)(I x b), one per
    matrix of an (N, 4, 4) stack; the result has shape (N,)."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 3:
        raise DimensionMismatchError(f"expected an (N, 4, 4) stack, got {b.shape}")
    left, right = _lift_pair(b)
    return residuals(left @ right @ left, right @ left @ right)


def braid_residual(b: np.ndarray) -> float:
    """Residual of (b x I)(I x b)(b x I) = (I x b)(b x I)(I x b).

    This is braid_residuals on a stack of one matrix.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2:
        raise DimensionMismatchError(f"expected a 4x4 matrix, got {b.shape}")
    return float(braid_residuals(b[None])[0])


def qybe_residuals(r_x: np.ndarray, r_y: np.ndarray, r_xy: np.ndarray) -> np.ndarray:
    """Residuals of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x), one per point.

    The three arguments are equal-shaped (N, 4, 4) stacks holding the
    family at x, at y and at x*y for each of N points; the result has shape
    (N,). The first right-hand factor carries the argument y (the
    multiplicative convention): with x there instead, the derived families
    miss by residuals of order one, so the convention is fixed by
    computation and pinned in the test suite.
    """
    stacks = [np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy)]
    if stacks[0].ndim != 3 or any(r.shape != stacks[0].shape for r in stacks):
        raise DimensionMismatchError(
            "expected three equal (N, 4, 4) stacks, got "
            + ", ".join(str(r.shape) for r in stacks)
        )
    (r1_x, r2_x), (r1_y, r2_y), (r1_xy, r2_xy) = (_lift_pair(r) for r in stacks)
    return residuals(r1_x @ r2_xy @ r1_y, r2_y @ r1_xy @ r2_x)


def qybe_residual(family: Callable[[float], np.ndarray], x: float, y: float) -> float:
    """Residual of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x) on the 8x8 lift.

    ``family`` maps a spectral value to a 4x4 matrix; it is evaluated at
    x, y, and x*y. This is qybe_residuals on a stack of one point.
    """
    r_x, r_y, r_xy = (np.asarray(family(t), dtype=complex)[None] for t in (x, y, x * y))
    return float(qybe_residuals(r_x, r_y, r_xy)[0])


def yang_baxterize(
    b: np.ndarray, eigenvalues: tuple[complex, complex], x: float
) -> np.ndarray:
    """Spectral-parameter extension b + x * lam1 * lam2 * b^(-1).

    Valid for braid matrices with exactly two distinct eigenvalues
    (lam1, lam2); at x = 0 it returns b unchanged. b may be a stack
    (..., 4, 4) and x an array that broadcasts against it.
    """
    lam1, lam2 = eigenvalues
    b = np.asarray(b, dtype=complex)
    return b + x * lam1 * lam2 * inverse(b)


def verify_two_eigenvalues(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> float:
    """Minimal-polynomial residual |(b - lam1 I)(b - lam2 I)|."""
    lam1, lam2 = eigenvalues
    b = np.asarray(b, dtype=complex)
    eye = np.eye(b.shape[0], dtype=complex)
    product = (b - lam1 * eye) @ (b - lam2 * eye)
    return float(np.max(np.abs(product)))
