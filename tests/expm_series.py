"""The scaling-and-squaring matrix exponential, kept as the tests'
independent oracle for every closed-form exponential in ybgates.

The package never runs a series: each of its generators is involutory, so
its exponentials have closed forms. This series is the check on them.
"""

from __future__ import annotations

import numpy as np

from ybgates.linalg import DimensionMismatchError

# At scaled 1-norm <= 0.5 the order-16 Taylor remainder is below 1e-15,
# comfortably under the convergence check.
_SERIES_ORDER = 16
_SERIES_TOL = 1e-13


class NonConvergenceError(ArithmeticError):
    """The exponential series failed to converge; a bug, not bad data."""


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling and squaring a fixed-order series.

    Accepts one matrix or a stack of shape (..., n, n); any other shape is
    a DimensionMismatchError. Each matrix gets its own squaring count and
    is multiplied by its own 2^-s. One series then runs over the
    distinct scaled matrices, told apart by their bytes, and each matrix
    takes its series' sum and squares it its own count of times. So every
    matrix goes through the same products as it would alone, and gets the
    same bits. Raises OverflowError for a matrix whose 1-norm is above
    2**1022, where 2^s overflows, and NonConvergenceError if any matrix's
    series fails its convergence check; each message names the first such
    matrix in stack order by its index over the leading axes.
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
    if len(big := np.flatnonzero(norms > 2.0**1022)):  # s would pass 1023: 2^s overflows
        index = tuple(int(i) for i in np.unravel_index(big[0], a.shape[:-2]))
        raise OverflowError(f"expm: 1-norm {norms[big[0]]:.3e} above 2**1022 at index {index}")
    counts = np.ceil(np.log2(np.maximum(norms, 0.5) / 0.5)).astype(int)
    scaled = flat / (2.0**counts)[:, None, None]
    # On a doubling grid (theta, 2 theta, 4 theta, ...) many matrices scale
    # to the same bytes; +0.0 and -0.0 differ, so each keeps its own series.
    keys = scaled.reshape(len(flat), n * n).view(np.dtype((np.void, 16 * n * n)))[:, 0]
    _, first, member = np.unique(keys, return_index=True, return_inverse=True)
    distinct = scaled[first]
    term = np.zeros_like(distinct)
    term[..., range(n), range(n)] = 1
    total = term.copy()
    for k in range(1, _SERIES_ORDER + 1):
        term = term @ distinct / k
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
