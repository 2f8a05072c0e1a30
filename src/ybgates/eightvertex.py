"""The eight-vertex braid matrix family and its unitary extensions.

With all eight anti-diagonal-block weights non-vanishing and the reduction
w1 = w2 = w5 = w6, w3 = -w4 = +-w1, w3^2 + w7*w8 = 0 applied, the braid
matrix collapses (after fixing the overall scale w1 = 1) to

    b_s(q) = [[ 1,    0, 0, q ],
              [ 0,    1, s, 0 ],
              [ 0,   -s, 1, 0 ],
              [ -1/q, 0, 0, 1 ]]        s = +1 or -1,

with eigenvalues 1-i and 1+i. Baxterizing and normalizing gives a
one-parameter family that is unitary at every real x when |q| = 1. Off
the unit circle a generic x gives a non-unitary matrix, though not every
x does: R(1) = 2I for every q != 0. Writing q = exp(-i*phi) and
x = tan(theta) gives the equivalent angle form
cos(theta) * b(phi) + sin(theta) * b(phi)^(-1).

The unitary b(phi) is built once per (sign, phi), on first use, and kept
read-only in a bounded cache keyed by the label and the bits of a float
phi, so -0.0 and 0.0 stay apart; the angle family, the Hamiltonians, the
Bell states and the theorem-1 product read it, and build_b_phi returns a
fresh copy.
"""

from __future__ import annotations

import cmath
import functools
import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .linalg import _WEIGHT_INDEX, map_floats, read_only
from .paulis import SQRT2
from .yangbaxter import _baxterization, inverse_from_eigenvalues, yang_baxterize

# The two eigenvalues shared by every member of the family; their product
# is the Baxterization coefficient 2.
EIGENVALUES = (1.0 - 1.0j, 1.0 + 1.0j)

# The eigenvalues (1 -+ i) / sqrt(2) of the unitary b(phi) = b / sqrt(2),
# written as exp(-+ i pi/4): in floats their sum is SQRT2 and their product
# 1.0 exactly, so inverse_from_eigenvalues gives sqrt(2) I - b(phi).
PHI_EIGENVALUES = (cmath.exp(-0.25j * math.pi), cmath.exp(0.25j * math.pi))


class ZeroDeformationError(ValueError):
    """The deformation parameter q must be non-zero."""


def sign_value(sign: str) -> float:
    """Map the family label '+' or '-' to the sign of the inner block."""
    if sign == "+":
        return 1.0
    if sign == "-":
        return -1.0
    raise ValueError(f"sign must be '+' or '-', got {sign!r}")


@dataclass(frozen=True)
class EightVertexWeights:
    """The eight non-vanishing vertex weights w1..w8."""

    w1: complex
    w2: complex
    w3: complex
    w4: complex
    w5: complex
    w6: complex
    w7: complex
    w8: complex

    def to_matrix(self) -> np.ndarray:
        """Arrange the weights in the anti-diagonal-block pattern."""
        return _place(tuple(vars(self).values()))  # w1..w8, in field order


def _place(weights) -> np.ndarray:
    """The 4x4 matrix with w1..w8 at linalg._WEIGHT_INDEX, zero elsewhere."""
    m = np.zeros(16, dtype=complex)
    m[_WEIGHT_INDEX] = weights
    return m.reshape(4, 4)


def _b_weights(s: float, q):
    """w1..w8 of b_s(q), with -1/q in q's own arithmetic, Python's or numpy's."""
    return (1, 1, s, -s, 1, 1, q, -1.0 / q)


def check_constraints(w: EightVertexWeights) -> list[float]:
    """Residuals of the braid-solution constraints on the weights.

    Returns six values: |w1-w2|, |w1-w5|, |w1-w6|, |w1^2-w3^2|,
    |w1^2-w4^2|, |w3^2 + w7*w8|. All six vanish exactly on the reduced
    family that build_b constructs.
    """
    return [
        abs(w.w1 - w.w2),
        abs(w.w1 - w.w5),
        abs(w.w1 - w.w6),
        abs(w.w1**2 - w.w3**2),
        abs(w.w1**2 - w.w4**2),
        abs(w.w3**2 + w.w7 * w.w8),
    ]


def build_b(sign: str, q: complex) -> np.ndarray:
    """Unnormalized braid matrix b_s(q) with overall scale w1 = 1."""
    if q == 0:
        raise ZeroDeformationError("deformation parameter q must be non-zero")
    return _place(_b_weights(sign_value(sign), q))


def build_b_stack(sign, q: np.ndarray) -> np.ndarray:
    """build_b over an array of deformations q and one label, or an array of
    them that broadcasts against q: shape S + (4, 4) for the shape S of both,
    each matrix bit-identical to build_b at its label and numpy complex q.
    """
    q = np.asarray(q, dtype=complex)
    if np.any(q == 0):
        raise ZeroDeformationError("deformation parameter q must be non-zero")
    if isinstance(sign, str):
        s, shape = sign_value(sign), q.shape
    else:  # each label through sign_value, in the labels' shape
        s = np.reshape([sign_value(v) for v in np.ravel(sign).tolist()], np.shape(sign))
        shape = np.broadcast(s, q).shape
    b = np.zeros(shape + (16,), dtype=complex)
    for k, w in zip(_WEIGHT_INDEX, _b_weights(s, q)):
        b[..., k] = w
    return b.reshape(shape + (4, 4))


def _build_b_phi(sign: str, phi: float) -> np.ndarray:
    return build_b(sign, np.exp(-1j * phi)) / SQRT2


@functools.lru_cache(maxsize=8)
def _b_phi_of_bits(sign: str, key: bytes) -> np.ndarray:
    """b(phi), read-only, for the angle packed in key as one double; bounded,
    as callers may pass any angle."""
    return read_only(_build_b_phi(sign, struct.unpack("d", key)[0]))


def _b_phi(sign: str, phi: float) -> np.ndarray:
    """The read-only b(phi): cached for a float phi, keyed by its bits (the
    label is checked first, so a bad one raises ValueError, not a hashing
    error). A complex phi, which would give a non-unitary matrix, and an
    array are a TypeError; any other phi is built as build_b_phi always
    built it."""
    if isinstance(phi, float):
        sign_value(sign)
        return _b_phi_of_bits(sign, struct.pack("d", phi))
    if isinstance(phi, (complex, np.complexfloating, np.ndarray)):
        raise TypeError(f"phi must be one real number, got {phi!r}")
    return _build_b_phi(sign, phi)


def build_b_phi(sign: str, phi: float) -> np.ndarray:
    """Unitary braid matrix build_b(sign, exp(-i*phi)) / sqrt(2)."""
    return _b_phi(sign, phi).copy()


def build_b_phi_stack(sign, phi: np.ndarray) -> np.ndarray:
    """build_b_phi over an array of angles and labels as in build_b_stack,
    each matrix bit-identical to build_b_phi at the same float phi."""
    return build_b_stack(sign, np.exp(-1j * np.asarray(phi, dtype=float))) / SQRT2


def build_R_x(sign: str, q: complex, x: float) -> np.ndarray:
    """Baxterized family b + 2x * b^(-1) = (1 - x) b + 2x I, through
    yang_baxterize; entries follow 1+x and q(1-x)."""
    return yang_baxterize(build_b(sign, q), EIGENVALUES)(x)


def R_x_family(sign, q: np.ndarray) -> Callable[[np.ndarray], np.ndarray]:
    """The map x -> build_R_x(sign, q, x) over arrays: labels as in
    build_b_stack, q and x broadcast to a shape S, the result S + (4, 4), each
    matrix bit-identical to build_R_x at the same numpy complex q and float x.
    One braid matrix is built per (label, q), once, however often the map is
    called. Every b_s(q) has the eigenvalues 1 -+ i, so the premise that
    yang_baxterize checks holds by construction and is not checked here."""
    return _baxterization(build_b_stack(sign, q), EIGENVALUES)


def rho(x: float) -> float:
    """Squared normalization (1+x)^2 + (1-x)^2 = 2(1 + x^2) for real x.

    x is read as a Python float, so a numpy float gives the same bits as
    its Python value. Raises OverflowError, naming x, when x does not fit
    in a float or a square overflows (numpy's ** would give inf instead).
    """
    try:
        v = float(x)
        return (1.0 + v) ** 2 + (1.0 - v) ** 2
    except OverflowError:
        raise OverflowError(f"rho(x) = (1+x)^2 + (1-x)^2 overflows at x={x!r}") from None


def build_R_x_normalized(sign: str, phi: float, x: float) -> np.ndarray:
    """Unitary spectral family build_R_x(sign, exp(-i*phi), x) / sqrt(rho)."""
    return build_R_x(sign, np.exp(-1j * phi), x) / math.sqrt(rho(x))


def build_R_x_normalized_stack(sign, phi: np.ndarray, x: np.ndarray) -> np.ndarray:
    """build_R_x_normalized over arrays: labels as in build_b_stack, phi and x
    broadcast to a shape S, result S + (4, 4), each matrix bit-identical to
    the per-point function.

    The normalization is math.sqrt(rho(x)) on Python floats, as in the
    per-point function: numpy's square differs from Python's ** in the last
    bit for some x, and ** raises OverflowError where numpy returns inf.
    """
    x = np.asarray(x, dtype=float)
    norms = map_floats(lambda v: math.sqrt(rho(v)), x)
    q = np.exp(-1j * np.asarray(phi, dtype=float))
    return R_x_family(sign, q)(x) / norms[..., None, None]


def angle_form(b: np.ndarray, theta) -> np.ndarray:
    """cos(theta) b + sin(theta) b^(-1) for the unitary b(phi), written only
    here, with math.cos and math.sin of each theta: one matrix and a float
    theta, or a stack (..., 4, 4) and a theta array that broadcasts against it."""
    inverse = inverse_from_eigenvalues(b, PHI_EIGENVALUES)
    return map_floats(math.cos, theta) * b + map_floats(math.sin, theta) * inverse


def build_R_theta(sign: str, phi: float, theta: float) -> np.ndarray:
    """Angle form cos(theta) b(phi) + sin(theta) b(phi)^(-1); unitary."""
    return angle_form(_b_phi(sign, phi), theta)


def theta_from_x(x: float) -> float:
    """Angle equivalent of a real spectral value: arctan(x) in (-pi/2, pi/2)."""
    return math.atan(x)
