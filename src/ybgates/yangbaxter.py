"""Residual checks for the braid relation and its spectral-parameter
generalization, plus the two-eigenvalue Baxterization connecting them.

A 4x4 matrix acting on two adjacent qubits lifts to three qubits as either
m (x) I or I (x) m. Both relations checked here are identities between
products of three such 8x8 lifts, and both checks return the max-entry
residual of the two sides so the caller picks the tolerance.
qybe_residuals, over N points given as three (N, 4, 4) stacks, makes
every product: the braid relation is the spectral one with b = R(0) in
all three slots, and the one-matrix and one-point checks are calls of it
on stacks of one. Callers that check a grid expand it to points first.

It builds no lift and calls no BLAS. Entry (i, j) of a product A B C of
lifts is the sum over the paths (k, l) of A[i, k] B[k, l] C[l, j], and a
lift has at most four non-zero entries in a row. So the paths whose three
factors are all structurally non-zero are fixed, and are tabled once, on
first use, as indices into the 16 entries of m. Every matrix of the
eight-vertex family has the zero pattern of b, whose lifts preserve
three-qubit parity: each side then has 32 non-zero entries, each a sum
of 2 paths. A call with a non-zero entry (NaN and infinity included)
outside that pattern takes the dense tables, 8 paths on each of the 64
entries, for every point; they add only paths through structural zeros,
so finite eight-vertex input gives the same bits on either. Each path is the
product of its three factors, left to right, and each entry adds its
paths one at a time in (k, l) order, so an entry's bits depend on
neither the size of the call nor the BLAS kernel. numpy's complex
multiply is the one step whose bits could depend on the CPU; they were
the same under numpy's X86_V3 (AVX2 and FMA) and AVX-512 targets.
"""

from __future__ import annotations

import functools
from typing import Callable

import numpy as np

from .linalg import DimensionMismatchError, _eye, read_only

# Entry (k, r, c) is the index, in a 4x4 matrix m flattened row-major, of
# entry (r, c) of its k-th lift: m (x) I holds m[r // 2, c // 2] where r
# and c share parity, I (x) m holds m[r % 4, c % 4] in its two diagonal
# blocks. Elsewhere the lift is zero and the index is 16, which picks a
# zero appended after the 16 entries. (Built from Python ints: building
# it with np.kron, or indexing the zero as -1, measured 0.1 to 0.3 MB
# more peak RSS per process.)
_LIFT_INDEX = np.array(
    [
        [[4 * (r // 2) + c // 2 if r % 2 == c % 2 else 16 for c in range(8)] for r in range(8)],
        [[4 * (r % 4) + c % 4 if r // 4 == c // 4 else 16 for c in range(8)] for r in range(8)],
    ]
)

# Flat indices of the entries that are zero in every eight-vertex matrix
# (b has non-zeros on its diagonal and anti-diagonal only).
_OFF_PATTERN = np.array([1, 2, 4, 7, 8, 11, 13, 14])

# Points whose paths qybe_residuals multiplies at a time: enough to
# spread numpy's per-call cost thin, few enough that the gathered factors
# stay a few hundred kilobytes (eight times that on the dense tables).
# They live in a workspace allocated once per call and reused by every
# chunk. Allocated per chunk instead, they made glibc trim the heap top
# and fault it back in on each chunk of a longer call, so 128- and
# 256-point calls ran 1.5 to 2.9 times slower than 64-point ones.
_CHUNK = 64

# Rounding level of an identity between products of a few small matrices,
# relative to the products of their absolute values: 2 gamma_16, with
# gamma_n = n u / (1 - n u) and u = 2^-53 (Higham, "Accuracy and Stability
# of Numerical Algorithms", 2nd ed., 2002, sections 3.1 and 3.5).
_ROUNDING = 32 * 2.0**-53 / (1 - 16 * 2.0**-53)


@functools.cache
def _path_tables(dense: bool) -> np.ndarray:
    """Every path of both sides, as a (6, T, E) array of rows of a point's
    48 entries: those of x, y and xy, 16 each in that order. Slots 0 to 2
    hold the first, middle and last factor of R1(x) R2(xy) R1(y), slots 3
    to 5 those of R2(y) R1(xy) R2(x). Both sides list the same E entries
    (i, j) in row-major order, each with its T paths (k, l) in row-major
    order. Built on first use, read-only, from _LIFT_INDEX and the
    eight-vertex zero pattern, or the dense one."""
    pattern = np.ones(17, dtype=bool)
    pattern[16] = False
    if not dense:
        pattern[_OFF_PATTERN] = False
    nonzero = pattern[_LIFT_INDEX]
    slots = []
    for lifts, rows in (((0, 1, 0), (0, 32, 16)), ((1, 0, 1), (16, 32, 0))):
        first, middle, last = (nonzero[k] for k in lifts)
        paths = first[:, None, :, None] & middle[None, None] & last.T[None, :, None]
        i, j, k, l = np.nonzero(paths)  # paths[i, j, k, l]: entry (i, j), path (k, l)
        for lift_k, row, (r, c) in zip(lifts, rows, ((i, k), (k, l), (l, j))):
            slots.append(row + _LIFT_INDEX[lift_k][r, c])
    entries = len(set(zip(i.tolist(), j.tolist())))
    return read_only(np.stack(slots).reshape(6, entries, -1).swapaxes(1, 2).copy())


def braid_residuals(b: np.ndarray) -> np.ndarray:
    """Residuals of (b x I)(I x b)(b x I) = (I x b)(b x I)(I x b), one per
    matrix of an (N, 4, 4) stack, as qybe_residuals with b in all three
    slots; shape (N,)."""
    return qybe_residuals(b, b, b)


def braid_residual(b: np.ndarray) -> float:
    """Residual of (b x I)(I x b)(b x I) = (I x b)(b x I)(I x b).

    This is braid_residuals on a stack of one matrix.
    """
    b = np.asarray(b, dtype=complex)
    if b.shape != (4, 4):
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

    Every entry of both sides is summed over the path tables (see the
    module docstring), chosen once per call: the eight-vertex tables, or
    the dense ones when any matrix of the call has a non-zero entry, NaN
    and infinity included, outside b's pattern. A point's residual is the
    same, bit for bit, in a call of any size, or non-finite in both.

    The call runs in chunks of _CHUNK points that share one workspace,
    min(N, _CHUNK) columns wide and shaped for those tables. Every chunk
    writes each step into it with out= arguments, the same ufuncs on the
    same operands in the same order as temporaries would take, so a large
    call costs no more per point than a small one.
    """
    r_x, r_y, r_xy = (np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy))
    # shape[1:] is () for a scalar and a vector, so they are refused too.
    if r_x.shape[1:] != (4, 4) or not r_x.shape == r_y.shape == r_xy.shape:
        raise DimensionMismatchError(
            f"expected three equal (N, 4, 4) stacks, got {r_x.shape}, {r_y.shape}, {r_xy.shape}"
        )
    # Each point's x, y and xy, one row of 16 entries per point.
    x, y, xy = (r.reshape(-1, 16) for r in (r_x, r_y, r_xy))
    # One table choice per call. The scan copies the off-pattern entries of
    # 64 chunks' points at a time, so its memory stays bounded.
    scan = 64 * _CHUNK
    starts = range(0, len(xy), scan)
    off = (r[i : i + scan].take(_OFF_PATTERN, axis=1).any() for r in (x, y, xy) for i in starts)
    tables = _path_tables(any(off))
    out = np.empty(len(xy))
    # The chunk workspace, one column per point: the 48 entry rows, the
    # gathered factors and the two sides' path terms.
    rows = np.empty((48, min(len(xy), _CHUNK)), dtype=complex)
    terms = np.empty(tables.shape + rows.shape[1:], dtype=complex)
    prod = np.empty_like(terms[:2])
    for start in range(0, len(xy), _CHUNK):
        width = min(_CHUNK, len(xy) - start)
        for offset, r in zip((0, 16, 32), (x, y, xy)):
            rows[offset : offset + 16, :width] = r[start : start + width].T
        rows.take(tables, axis=0, out=terms, mode="clip")  # "raise" buffers out
        np.multiply(terms[0::3], terms[1::3], out=prod)
        np.multiply(prod, terms[2::3], out=prod)
        # Each entry adds its paths' terms one at a time, in order.
        for path in range(1, len(tables[0])):
            np.add(prod[:, 0], prod[:, path], out=prod[:, 0])
        out[start : start + width] = np.abs(prod[0, 0] - prod[1, 0]).max(axis=0)[:width]
    return out


def qybe_residual(family: Callable[[float], np.ndarray], x: float, y: float) -> float:
    """Residual of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x) on the 8x8 lift.

    ``family`` maps a spectral value to a 4x4 matrix; it is evaluated at
    x, y, and x*y. This is qybe_residuals on a stack of one point.
    """
    r_x, r_y, r_xy = (np.asarray(family(t), dtype=complex)[None] for t in (x, y, x * y))
    return float(qybe_residuals(r_x, r_y, r_xy)[0])


def inverse_from_eigenvalues(b: np.ndarray, eigenvalues: tuple[complex, complex]) -> np.ndarray:
    """b^(-1) = ((lam1 + lam2) I - b) / (lam1 lam2) for a b with exactly the
    two eigenvalues (lam1, lam2), that is (b - lam1 I)(b - lam2 I) = 0.

    b may be a stack (..., n, n). The premise is the caller's: yang_baxterize
    checks it. The sum and the reciprocal of the product are taken once, in
    Python complex arithmetic, so a product that is a power of two scales
    exactly. Raises ValueError if lam1 lam2 = 0, when b is singular.
    """
    lam1, lam2 = eigenvalues
    if lam1 * lam2 == 0:
        raise ValueError("an eigenvalue is zero, so b is singular and has no inverse")
    b = np.asarray(b, dtype=complex)
    return ((lam1 + lam2) * _eye(b.shape[-1]) - b) * (1 / (lam1 * lam2))


def _baxterization(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> (1 - x) b + x (lam1 + lam2) I, with real x that
    broadcasts against b's leading axes, premise unchecked.

    (1 - x) scales the real and imaginary parts of b as floats, so x = 0
    returns b bit for bit, and every entry is rounded the same way on
    every CPU.
    """
    total = complex(sum(eigenvalues))
    # (..., n, 2n): the real and imaginary parts of b, interleaved.
    parts = np.ascontiguousarray(b).view(float)
    n = b.shape[-1]

    def at(x) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None, None]
        r = ((1.0 - x) * parts).view(complex)
        r.reshape(r.shape[:-2] + (n * n,))[..., :: n + 1] += x[..., 0] * total
        return r

    return at


def yang_baxterize(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> Callable[[np.ndarray], np.ndarray]:
    """The Baxterization map x -> b + x * lam1 * lam2 * b^(-1), in the closed
    form (1 - x) b + x (lam1 + lam2) I that inverse_from_eigenvalues gives.

    Valid for braid matrices with exactly two distinct eigenvalues
    (lam1, lam2); at x = 0 the map returns b bit for bit. b may be a stack
    (..., n, n) and x a real array that broadcasts against its leading axes;
    any other shape of b is a DimensionMismatchError. The premise is checked
    once, when the map is built: ValueError if lam1 lam2 = 0, or if
    b b^(-1) - I, with the closed-form inverse, is not at rounding level
    relative to |b| |b^(-1)| for some finite matrix of b. A non-finite b is
    let through, and gives a non-finite map.
    """
    b = np.asarray(b, dtype=complex)
    if b.ndim < 2 or b.shape[-1] != b.shape[-2]:
        raise DimensionMismatchError(f"yang_baxterize needs (..., n, n) matrices, got {b.shape}")
    b_inv = inverse_from_eigenvalues(b, eigenvalues)
    defect = np.abs(b @ b_inv - _eye(b.shape[-1])).max(axis=(-2, -1))
    scale = (np.abs(b) @ np.abs(b_inv)).max(axis=(-2, -1))
    finite = np.isfinite(b).all(axis=(-2, -1))
    if np.any(finite & ~(defect <= _ROUNDING * scale)):
        raise ValueError(
            f"b does not have exactly the two eigenvalues {eigenvalues}:"
            " (b - lam1 I)(b - lam2 I) is not zero"
        )
    return _baxterization(b, eigenvalues)


def verify_two_eigenvalues(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> float:
    """Minimal-polynomial residual |(b - lam1 I)(b - lam2 I)| of one square b."""
    lam1, lam2 = eigenvalues
    b = np.asarray(b, dtype=complex)
    if b.ndim != 2 or b.shape[0] != b.shape[1]:
        raise DimensionMismatchError(f"expected one square matrix, got shape {b.shape}")
    eye = _eye(b.shape[0])
    product = (b - lam1 * eye) @ (b - lam2 * eye)
    return float(np.max(np.abs(product)))
