"""Dense complex linear algebra on the small fixed-size matrices (2x2, 4x4,
8x8) used throughout the package.

Everything takes and returns numpy complex128 arrays. Closeness is always
measured with the max-entry absolute residual, never a spectral norm, so a
tolerance means the same thing in every module, test, and report.
"""

from __future__ import annotations

import numpy as np

SINGULARITY_THRESHOLD = 1e-12

# At scaled 1-norm <= 0.5 the order-16 Taylor remainder is below 1e-15,
# comfortably under the convergence check.
_SERIES_ORDER = 16
_SERIES_TOL = 1e-13


class SingularMatrixError(ValueError):
    """Matrix is singular to working precision (|det| <= 1e-12)."""


class DimensionMismatchError(ValueError):
    """Operands do not have the dimensions the operation requires."""


class NonConvergenceError(ArithmeticError):
    """The exponential series failed to converge; a bug, not bad data."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product: entry ((i*n+k), (j*n+l)) is a[i,j] * b[k,l].

    Same contract and bits as np.kron, including its leading-axis padding
    (an (N, 4, 4) stack times a 2x2 matrix is an (N, 8, 8) stack), but
    one broadcast multiply of interleaved reshapes with none of np.kron's
    per-call axis bookkeeping.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    nd = max(a.ndim, b.ndim)
    sa = (1,) * (nd - a.ndim) + a.shape
    sb = (1,) * (nd - b.ndim) + b.shape
    product = a.reshape([d for s in sa for d in (s, 1)]) * b.reshape(
        [d for s in sb for d in (1, s)]
    )
    return product.reshape([x * y for x, y in zip(sa, sb)])


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def inverse(a: np.ndarray) -> np.ndarray:
    """Matrix inverse, rejecting inputs with |det| at or below 1e-12.

    Accepts one matrix or a stack of shape (..., n, n); every matrix in a
    stack is checked and inverted.
    """
    a = np.asarray(a, dtype=complex)
    small = abs(np.linalg.det(a)) <= SINGULARITY_THRESHOLD
    # One matrix gives a numpy bool: test it directly, as .any() on it
    # costs about half as much as the determinant.
    if small.any() if a.ndim > 2 else small:
        raise SingularMatrixError("matrix is singular to working precision")
    return np.linalg.inv(a)


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a fixed-order series."""
    a = np.asarray(a, dtype=complex)
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite entries")
    norm = float(np.linalg.norm(a, 1))
    squarings = 0 if norm <= 0.5 else int(np.ceil(np.log2(norm / 0.5)))
    scaled = a / (2.0 ** squarings)
    term = np.eye(a.shape[0], dtype=complex)
    total = term.copy()
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ scaled / k
        total += term
    tail = float(np.max(np.abs(term)))
    if not tail <= _SERIES_TOL * max(1.0, float(np.max(np.abs(total)))):
        raise NonConvergenceError(
            f"series tail {tail:.3e} after {_SERIES_ORDER} terms"
        )
    for _ in range(squarings):
        total = total @ total
    return total


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry absolute difference between two equal-shaped matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def unitarity_residual(u: np.ndarray) -> float:
    """Residual of u @ dagger(u) against the identity."""
    u = np.asarray(u, dtype=complex)
    return residual(u @ dagger(u), np.eye(u.shape[0], dtype=complex))
