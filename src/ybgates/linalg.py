"""Dense complex linear algebra on the small fixed-size matrices (2x2 and
4x4) used throughout the package.

Everything takes and returns numpy complex128 arrays. Closeness is always
measured with the max-entry absolute residual, never a spectral norm, so a
tolerance means the same thing in every module, test, and report.
"""

from __future__ import annotations

import functools

import numpy as np

# At scaled 1-norm <= 0.5 the order-16 Taylor remainder is below 1e-15,
# comfortably under the convergence check.
_SERIES_ORDER = 16
_SERIES_TOL = 1e-13

# Entries map_floats converts to Python floats at a time: large enough that
# the per-block cost is spread thin, small enough that the list stays tens
# of kilobytes whatever the array size.
_FLOAT_BLOCK = 1024


class DimensionMismatchError(ValueError):
    """Operands do not have the dimensions the operation requires."""


class NonConvergenceError(ArithmeticError):
    """The exponential series failed to converge; a bug, not bad data."""


def read_only(a: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    a.flags.writeable = False
    return a


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two matrices, with np.kron's bits: entry
    ((i*p+k), (j*q+l)) is a[i,j] * b[k,l], from one broadcast multiply of
    interleaved reshapes. Any other operand is a DimensionMismatchError."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.ndim != 2 or b.ndim != 2:
        raise DimensionMismatchError(f"kron needs two matrices, got {a.shape} and {b.shape}")
    (m, n), (p, q) = a.shape, b.shape
    return (a.reshape(m, 1, n, 1) * b.reshape(1, p, 1, q)).reshape(m * p, n * q)


def map_floats(f, x: np.ndarray) -> np.ndarray:
    """f(v) for each entry v of x, computed on Python floats, in x's shape.

    For steps whose bits must match a per-point math-module computation;
    the entries go through Python _FLOAT_BLOCK at a time, so no list of the
    whole array is built.
    """
    x = np.asarray(x, dtype=float)
    flat, out = x.ravel(), np.empty(x.size)
    for start in range(0, x.size, _FLOAT_BLOCK):
        block = slice(start, start + _FLOAT_BLOCK)
        out[block] = [f(v) for v in flat[block].tolist()]
    return out.reshape(x.shape)


def _reciprocal(d):
    """The complex multiplier 1/d - 0j: a * _reciprocal(d) divides a complex
    a by a real d > 0, a scalar or an array, with numpy's bits, in one
    multiply per entry in place of numpy's complex division.

    numpy divides re + i im by d + 0j (Smith's algorithm) as
    (re + im*0) * (1/d) and (im - re*0) * (1/d); the multiply computes
    re*(1/d) - im*(-0) and re*(-0) + im*(1/d). For finite d > 0 these have
    the same bytes, signed zeros and NaN included, but for two cases: a
    nonzero part that the quotient rounds to zero (never for d < 2) may
    get the other sign, and an entry with two NaN parts may get other NaN
    bits. d <= 0, inf or NaN is outside the identity.
    """
    return (1.0 / np.asarray(d, dtype=float)).astype(complex).conj()


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(a, dtype=complex).conj().T


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a fixed-order series.

    Accepts one matrix or a stack of shape (..., n, n); any other shape is
    a DimensionMismatchError. Each matrix gets its own squaring count and
    is multiplied by its own 2^-s. One series then runs over the
    distinct scaled matrices, told apart by their bytes, and each matrix
    takes its series' sum and squares it its own count of times. So every
    matrix goes through the same products as it would alone, and gets the
    same bits. Raises NonConvergenceError if any matrix's series fails its
    convergence check; the message names the first failing matrix in stack
    order by its index over the leading axes.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimensionMismatchError(f"expm needs (..., n, n) matrices, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix exponential of non-finite entries")
    if not a.size:  # no matrices, or 0x0 ones
        return np.empty_like(a)
    n = a.shape[-1]
    flat = a.reshape(-1, n, n)
    # The 1-norm (largest absolute column sum) sets the squaring count.
    norms = np.abs(flat).sum(axis=-2).max(axis=-1)
    counts = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    # Here and in the series a multiply by _reciprocal stands for a divide.
    # Where the two differ, in the sign of a zero, no entry of the sum does:
    # a zero's sign sets no nonzero value, and the sum starts at +0 and 1,
    # so it never holds -0. expm keeps the one-matrix divide's bits.
    scaled = flat * _reciprocal(2.0**counts)[:, None, None]
    # On a doubling grid (theta, 2 theta, 4 theta, ...) many matrices scale
    # to the same bytes; +0.0 and -0.0 differ, so each keeps its own series.
    keys = scaled.reshape(len(flat), n * n).view(np.dtype((np.void, 16 * n * n)))[:, 0]
    _, first, member = np.unique(keys, return_index=True, return_inverse=True)
    distinct = scaled[first]
    term = np.zeros_like(distinct)
    term[..., range(n), range(n)] = 1
    total = term.copy()
    for step in _reciprocal(np.arange(1, _SERIES_ORDER + 1)):
        term = term @ distinct * step
        total += term
    tails = np.abs(term).max(axis=(-2, -1))
    bounds = _SERIES_TOL * np.maximum(1.0, np.abs(total).max(axis=(-2, -1)))
    failed = np.flatnonzero(~(tails <= bounds)[member])
    if len(failed):
        index = tuple(int(i) for i in np.unravel_index(failed[0], a.shape[:-2]))
        raise NonConvergenceError(
            f"series tail {tails[member[failed[0]]]:.3e} after {_SERIES_ORDER} terms"
            f" at index {index}"
        )
    out = total[member]
    for r in range(1, int(counts.max()) + 1):
        live = counts >= r
        s = out[live]
        out[live] = s @ s
    return out.reshape(a.shape)


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
    return np.max(np.abs(product - _eye(u.shape[-1])), axis=(-2, -1))
