"""Residual checks for the braid relation and its spectral-parameter
generalization, plus the two-eigenvalue Baxterization connecting them.

A 4x4 matrix acting on two adjacent qubits lifts to three qubits as either
m (x) I or I (x) m; a stack of N such matrices lifts to N 8x8 matrices
the same way. Both relations checked here are identities between
products of such 8x8 lifts, and both checks return the max-entry residual
of the two sides so the caller picks the tolerance. qybe_table_residuals
makes every product: the braid relation is the spectral one with b = R(0)
in all three slots, and the other checks call it on one-point tables.
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
    matrix of an (N, 4, 4) stack, as qybe_table_residuals on N one-point
    tables with b, lifted once, in all three slots; shape (N,)."""
    b = np.asarray(b, dtype=complex)
    if b.ndim != 3:
        raise DimensionMismatchError(f"expected an (N, 4, 4) stack, got {b.shape}")
    lifted = lift(b)[:, None]
    return qybe_table_residuals(lifted, lifted, lifted[:, None])[:, 0, 0]


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
    pinned in the test suite. It is qybe_table_residuals on one-point tables.
    """
    r_x, r_y, r_xy = (np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy))
    if min(r_x.ndim, r_y.ndim, r_xy.ndim) < 3:
        shapes = ", ".join(str(r.shape) for r in (r_x, r_y, r_xy))
        raise DimensionMismatchError(f"expected (N, 4, 4) stacks or their lifts, got {shapes}")
    return qybe_table_residuals(r_x[:, None], r_y[:, None], r_xy[:, None, None])[:, 0, 0]


def qybe_table_residuals(r_x: np.ndarray, r_y: np.ndarray, r_xy: np.ndarray) -> np.ndarray:
    """Residuals of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x) over P tables of
    points, each with x from an axis of I matrices and y from one of J.

    ``r_x`` is a (P, I, 4, 4) stack, ``r_y`` a (P, J, 4, 4) stack and
    ``r_xy`` the (P, I, J, 4, 4) stack at their products; any of them may
    be given as its lift(). The result has shape (P, I, J), and entry
    (p, i, j) is the residual at (x_pi, y_pj), bit-identical to its one-point
    table (qybe_residuals) on OpenBLAS's SkylakeX kernel, and on every kernel
    when I = J = 1 (Haswell's sums follow the shape of the call): each
    factor is multiplied once across the points of its table that share
    it, with every entry's 8-term sums and the association order
    unchanged. On the left, R1(x_i) times R2(x_i y_j) for all j is one
    8 x 8J product, and that times R1(y_j) for all i one 8I x 8 product;
    on the right, R2(y_j) times R1(x_i y_j) for all i is one 8 x 8I
    product, and that times R2(x_i) for all j one 8J x 8 product.
    """
    stacks = [np.asarray(r, dtype=complex) for r in (r_x, r_y, r_xy)]
    lifted = [r if r.shape[-3:] == (2, 8, 8) else lift(r) for r in stacks]
    shapes = [r.shape[:-3] for r in lifted]
    if len(shapes[2]) != 3 or shapes[:2] != [shapes[2][:2], shapes[2][::2]]:
        raise DimensionMismatchError(
            "expected (P, I, 4, 4), (P, J, 4, 4) and (P, I, J, 4, 4) stacks or their lifts,"
            " got " + ", ".join(str(r.shape) for r in stacks)
        )
    p, i, j = shapes[2]
    (r1_x, r2_x), (r1_y, r2_y), (r1_xy, r2_xy) = (
        (r[..., 0, :, :], r[..., 1, :, :]) for r in lifted
    )
    left = r1_x @ r2_xy.transpose(0, 1, 3, 2, 4).reshape(p, i, 8, 8 * j)
    left = left.reshape(p, i, 8, j, 8).transpose(0, 3, 1, 2, 4).reshape(p, j, 8 * i, 8) @ r1_y
    right = r2_y @ r1_xy.transpose(0, 2, 3, 1, 4).reshape(p, j, 8, 8 * i)
    right = right.reshape(p, j, 8, i, 8).transpose(0, 3, 1, 2, 4).reshape(p, i, 8 * j, 8) @ r2_x
    return residuals(left.reshape(p, j, i, 8, 8).swapaxes(1, 2), right.reshape(p, i, j, 8, 8))


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
