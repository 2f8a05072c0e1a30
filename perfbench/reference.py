"""Fixed reference kernel that gauges how fast the machine runs right now.

A shared 2-core machine goes through phases of a minute or more in which
the same op takes up to twice as long. The kernel below makes the same
kind of small-matrix numpy calls ybgates makes (kron lift, 8x8 products,
4x4 inverse), but never calls ybgates, so no change to the program can
move it. Measured on such a machine, an op's time divided by the
kernel's adjacent time stayed within 2 % while raw op time moved 75 %.

Each timed sample is therefore reported scaled by ``REF_MS / measured``:
the time the sample would take on a machine where this kernel takes
``REF_MS``, about its time on an unloaded 2-core x86-64 machine.
"""

from __future__ import annotations

import time

import numpy as np

REF_MS = 16.0
_REPS = 300
_rng = np.random.default_rng(20040412)
_B = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_I2 = np.eye(2, dtype=complex)


def reference_ms() -> float:
    """Wall time of one run of the reference kernel, in ms."""
    start = time.perf_counter()
    for _ in range(_REPS):
        left, right = np.kron(_B, _I2), np.kron(_I2, _B)
        float(np.max(np.abs(left @ right @ left - right @ left @ right)))
        np.linalg.inv(_B)
    return (time.perf_counter() - start) * 1e3


def scale() -> float:
    """Factor that converts a time measured just now to reference speed."""
    return REF_MS / reference_ms()
