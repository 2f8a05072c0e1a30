"""Dense complex linear algebra on the small fixed-size matrices (2x2 and
4x4) used throughout the package.

Everything takes and returns numpy complex128 arrays. Closeness is always
measured with the max-entry absolute residual, never a spectral norm, so a
tolerance means the same thing in every module, test, and report.
"""

from __future__ import annotations

import functools

import numpy as np

# Entries map_floats converts to Python floats at a time: large enough that
# the per-block cost is spread thin, small enough that the list stays tens
# of kilobytes whatever the array size.
_FLOAT_BLOCK = 1024


class DimensionMismatchError(ValueError):
    """Operands do not have the dimensions the operation requires."""


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    a.flags.writeable = False
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, or of each pair of two stacks
    (..., m, n) and (..., p, q) that broadcast, with np.kron's bits: entry
    ((i*p+k), (j*q+l)) is a[i,j] * b[k,l], from one broadcast multiply of
    interleaved axes. A vector or scalar is a DimensionMismatchError."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionMismatchError(f"kron needs matrices or stacks, got {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    product = a[..., :, None, :, None] * b[..., None, :, None, :]
    return product.reshape(product.shape[:-4] + (m * p, n * q))


def map_floats(f, x: np.ndarray) -> np.ndarray:
    """f(v) for each entry v of x, computed on Python floats, in x's shape.

    For steps whose bits must match a per-point math-module computation;
    the entries go through Python _FLOAT_BLOCK at a time, so no list of the
    whole array is built. A float x (np.float64 included) gives one
    np.float64, so a one-point caller such as evolution_U builds no array.
    """
    if isinstance(x, float):
        return np.float64(f(x))
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.size)
    for start in range(0, x.size, _FLOAT_BLOCK):
        block = slice(start, start + _FLOAT_BLOCK)
        out[block] = [f(v) for v in flat[block].tolist()]
    return out.reshape(x.shape)


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def residual(a: np.ndarray, b: np.ndarray) -> float:
    """Max-entry absolute difference between two equal-shaped matrices."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.max(np.abs(a - b)))


def residuals(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """residual of each matrix pair in two equal-shaped (..., n, n) stacks."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise DimensionMismatchError(f"shape mismatch: {a.shape} vs {b.shape}")
    return np.max(np.abs(a - b), axis=(-2, -1))


@functools.lru_cache(maxsize=4)
def _eye(n: int) -> np.ndarray:
    """The n x n complex identity, read-only, built once for each of the
    few sizes in use; bounded, as callers may pass a matrix of any size."""
    return read_only(np.eye(n, dtype=complex))


def unitarity_residual(u: np.ndarray) -> float:
    """Residual of u @ dagger(u) against the identity, for a square u:
    unitarity_residuals on one matrix."""
    u = np.asarray(u, dtype=complex)
    if u.ndim != 2 or u.shape[0] != u.shape[1]:
        raise DimensionMismatchError(f"expected a square matrix, got shape {u.shape}")
    return float(unitarity_residuals(u))


def unitarity_residuals(u: np.ndarray) -> np.ndarray:
    """Residual of u @ dagger(u) against the identity, with the identity
    built once per size, for each matrix of a (..., n, n) stack; shape (...)."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise DimensionMismatchError(f"expected (..., n, n) matrices, got shape {u.shape}")
    product = u @ u.conj().swapaxes(-1, -2)
    return np.abs(product - _eye(u.shape[-1])).max(axis=(-2, -1))
