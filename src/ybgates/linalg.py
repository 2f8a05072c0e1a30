"""Dense complex linear algebra on the small fixed-size matrices (2x2 and
4x4) used throughout the package.

Everything takes and returns numpy complex128 arrays. Closeness is always
measured with the max-entry absolute residual, never a spectral norm, so a
tolerance means the same thing in every module, test, and report.

unitarity_residuals calls no BLAS. Entry (i, j) of u u^H is the sum over
k of u[i, k] conj(u[j, k]). On b's pattern only 8 entries have paths k on
which both factors are structurally non-zero, 2 paths each; a call with
n != 4, or with a non-zero entry (NaN and infinity included) outside the
pattern, takes the dense tables, n paths on each of the n^2 entries, which
add only exact zeros to finite eight-vertex input. Each entry adds its
paths one at a time in increasing k, so a matrix's bits depend on neither
the size of the call nor the BLAS kernel. numpy's complex multiply is the
one step whose bits depend on the CPU: they are the same from numpy's
X86_V3 target (AVX2 and FMA) up, and differ on its unfused X86_V2 baseline.
"""

from __future__ import annotations

import functools

import numpy as np

# Entries map_floats converts to Python floats at a time: large enough that
# the per-block cost is spread thin, small enough that the list stays tens
# of kilobytes whatever the array size.
_FLOAT_BLOCK = 1024

# The eight-vertex pattern: the flat row-major positions of w1..w8 in a 4x4
# matrix. Every eight-vertex matrix is zero at the others, _OFF_PATTERN.
_WEIGHT_INDEX = np.array([0, 15, 6, 9, 5, 10, 3, 12])
_OFF_PATTERN = np.delete(np.arange(16), _WEIGHT_INDEX)


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


@functools.lru_cache(maxsize=4)
def _gram_tables(n: int, dense: bool) -> np.ndarray:
    """The paths of u u^H for an n x n u, dense or on b's pattern (n = 4),
    as a (2, T, E) array of indices into u's n^2 entries, row-major: the
    factors of path t of entry e are at [0, t, e] and [1, t, e], the paths
    in increasing k, the E entries that have paths diagonal first. Built
    on first use, read-only; bounded, as callers may pass any n."""
    pattern = np.ones((n, n), dtype=bool)
    if not dense:
        pattern = np.isin(np.arange(16), _WEIGHT_INDEX).reshape(4, 4)
    i, j, k = np.nonzero(pattern[:, None] & pattern[None])  # entry (i, j), path k
    # The diagonal first, stably, so k stays increasing within each entry.
    i, j, k = (a[np.argsort(i != j, kind="stable")] for a in (i, j, k))
    entries = len(set(zip(i.tolist(), j.tolist())))
    factors = np.stack([i * n + k, j * n + k]).reshape(2, entries, -1)
    return read_only(factors.swapaxes(1, 2).copy())


def unitarity_residuals(u: np.ndarray) -> np.ndarray:
    """Residual of u @ dagger(u) against the identity for each matrix of a
    (..., n, n) stack, over the path tables (see the module docstring),
    chosen once per call; shape (...). A structurally zero entry's residual
    is exactly 0 and is left out. At its peak a call holds 40 complex
    numbers per eight-vertex matrix (2 n^3 + n^2 on the dense tables), the
    bytes that zgemm's u @ dagger(u) - I took."""
    u = np.asarray(u, dtype=complex)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2]:
        raise DimensionMismatchError(f"expected (..., n, n) matrices, got shape {u.shape}")
    n = u.shape[-1]
    x = u.reshape(-1, n * n)
    tables = _gram_tables(n, n != 4 or bool(x.take(_OFF_PATTERN, axis=1).any()))
    # Each path's two factors, (T, E, N): one column per matrix.
    left, right = x.T[tables[0]], x.T[tables[1]]
    np.conjugate(right, out=right)
    # The first product gets its own array: numpy rounds a one-element
    # complex multiply into one of its inputs without FMA, so a lone 1x1
    # matrix would get other bits than in a stack.
    gram = left[0] * right[0]
    # Each entry adds its paths' terms one at a time, in order.
    for path in range(1, len(left)):
        np.add(gram, np.multiply(left[path], right[path], out=left[path]), out=gram)
    del right  # before the result is allocated: the peak stays at 40 numbers a matrix
    gram[:n] -= 1
    return np.abs(gram, out=left[0].real).max(axis=0).reshape(u.shape[:-2])
