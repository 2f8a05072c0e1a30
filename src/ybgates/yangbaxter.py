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

from .linalg import DimensionMismatchError, inverse, residuals

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


def lift(m: np.ndarray) -> np.ndarray:
    """Both 8x8 lifts, m (x) I and I (x) m, of a (..., 4, 4) stack, as one
    (..., 2, 8, 8) stack.

    Entries are gathered, not multiplied by 1 and 0 as in a Kronecker
    product, so the lifts equal np.kron's in value wherever m is finite.
    (np.kron multiplies an infinite entry by 0 into NaN.)
    """
    m = np.asarray(m, dtype=complex)
    if m.shape[-2:] != (4, 4):
        raise DimensionMismatchError(f"expected a 4x4 matrix, got {m.shape}")
    flat = m.reshape(m.shape[:-2] + (16,))
    padded = np.concatenate([flat, np.zeros(flat.shape[:-1] + (1,), dtype=complex)], axis=-1)
    return padded[..., _LIFT_INDEX]


def braid_residuals(b: np.ndarray) -> np.ndarray:
    """Residuals of (b x I)(I x b)(b x I) = (I x b)(b x I)(I x b), one per
    matrix of an (N, 4, 4) stack; the result has shape (N,)."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 3:
        raise DimensionMismatchError(f"expected an (N, 4, 4) stack, got {b.shape}")
    left, right = np.moveaxis(lift(b), -3, 0)
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
    (N,). Any of them may be given as its lift(), an (N, 2, 8, 8) stack,
    so that a matrix shared by many points is lifted once. The first
    right-hand factor carries the argument y (the multiplicative
    convention): with x there instead, the derived families miss by
    residuals of order one, so the convention is fixed by computation and
    pinned in the test suite.
    """
    stacks = [np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy)]
    lifted = [r if r.shape[-3:] == (2, 8, 8) else lift(r) for r in stacks]
    if lifted[0].ndim != 4 or any(r.shape != lifted[0].shape for r in lifted):
        raise DimensionMismatchError(
            "expected three equal (N, 4, 4) stacks or their lifts, got "
            + ", ".join(str(r.shape) for r in stacks)
        )
    (r1_x, r2_x), (r1_y, r2_y), (r1_xy, r2_xy) = (np.moveaxis(r, 1, 0) for r in lifted)
    return residuals(r1_x @ r2_xy @ r1_y, r2_y @ r1_xy @ r2_x)


def qybe_table_residuals(r_x: np.ndarray, r_y: np.ndarray, r_xy: np.ndarray) -> np.ndarray:
    """qybe_residuals over a table of points: x from an axis of I matrices,
    y from an axis of J matrices.

    ``r_x`` is an (I, 4, 4) stack, ``r_y`` a (J, 4, 4) stack and ``r_xy``
    the (I, J, 4, 4) stack at their products; any of them may be given as
    its lift(). The result has shape (I, J), and entry (i, j) is
    qybe_residuals at the point (x_i, y_j), bit-identical on OpenBLAS's
    SkylakeX kernel (its Haswell kernel sums in an order set by the shape
    of the call, and differs in the last bits): each factor is multiplied
    once across the points that share it, with every entry's 8-term sums
    and the association order unchanged. On the left, R1(x_i) times
    R2(x_i y_j) for all j is one 8 x 8J product, and that times R1(y_j)
    for all i one 8I x 8 product; on the right, R2(y_j) times R1(x_i y_j)
    for all i is one 8 x 8I product, and that times R2(x_i) for all j one
    8J x 8 product.
    """
    stacks = [np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy)]
    lifted = [r if r.shape[-3:] == (2, 8, 8) else lift(r) for r in stacks]
    i, j = len(lifted[0]), len(lifted[1])
    if lifted[0].ndim != 4 or lifted[1].ndim != 4 or lifted[2].shape != (i, j, 2, 8, 8):
        raise DimensionMismatchError(
            "expected (I, 4, 4), (J, 4, 4) and (I, J, 4, 4) stacks or their lifts, got "
            + ", ".join(str(r.shape) for r in stacks)
        )
    (r1_x, r2_x), (r1_y, r2_y), (r1_xy, r2_xy) = (
        (r[..., 0, :, :], r[..., 1, :, :]) for r in lifted
    )
    left = r1_x @ r2_xy.transpose(0, 2, 1, 3).reshape(i, 8, 8 * j)
    left = left.reshape(i, 8, j, 8).transpose(2, 0, 1, 3).reshape(j, 8 * i, 8) @ r1_y
    right = r2_y @ r1_xy.transpose(1, 2, 0, 3).reshape(j, 8, 8 * i)
    right = right.reshape(j, 8, i, 8).transpose(2, 0, 1, 3).reshape(i, 8 * j, 8) @ r2_x
    return residuals(left.reshape(j, i, 8, 8).swapaxes(0, 1), right.reshape(i, j, 8, 8))


def qybe_residual(family: Callable[[float], np.ndarray], x: float, y: float) -> float:
    """Residual of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x) on the 8x8 lift.

    ``family`` maps a spectral value to a 4x4 matrix; it is evaluated at
    x, y, and x*y. This is qybe_residuals on a stack of one point.
    """
    r_x, r_y, r_xy = (np.asarray(family(t), dtype=complex)[None] for t in (x, y, x * y))
    return float(qybe_residuals(r_x, r_y, r_xy)[0])


def yang_baxterize(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> Callable[[np.ndarray], np.ndarray]:
    """The Baxterization map x -> b + x * lam1 * lam2 * b^(-1).

    Valid for braid matrices with exactly two distinct eigenvalues
    (lam1, lam2); at x = 0 the map returns b unchanged. b may be a stack
    (..., 4, 4) and x an array that broadcasts against it. b is inverted
    once, when the map is built, however often the map is called.
    """
    lam1, lam2 = eigenvalues
    b = np.asarray(b, dtype=complex)
    b_inv = inverse(b)
    return lambda x: b + x * lam1 * lam2 * b_inv


def verify_two_eigenvalues(
    b: np.ndarray, eigenvalues: tuple[complex, complex]
) -> float:
    """Minimal-polynomial residual |(b - lam1 I)(b - lam2 I)|."""
    lam1, lam2 = eigenvalues
    b = np.asarray(b, dtype=complex)
    eye = np.eye(b.shape[0], dtype=complex)
    product = (b - lam1 * eye) @ (b - lam2 * eye)
    return float(np.max(np.abs(product)))
