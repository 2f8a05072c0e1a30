"""The QYBE residual of a family at one point, for tests that walk a grid
point by point: qybe_residuals on the three one-point stacks. It calls the
kernel it would check, so it is no oracle; it pins that a point's bits do
not depend on the call it runs in."""

import numpy as np

from ybgates.yangbaxter import qybe_residuals


def qybe_point(family, x, y):
    """Residual of R1(x) R2(xy) R1(y) = R2(y) R1(xy) R2(x), where ``family``
    maps a spectral value to a 4x4 matrix."""
    r_x, r_y, r_xy = (np.asarray(family(t), dtype=complex)[None] for t in (x, y, x * y))
    return float(qybe_residuals(r_x, r_y, r_xy)[0])
