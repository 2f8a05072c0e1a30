"""Pauli matrices, the raising/lowering combinations built from them, and
the numeric constants shared across the package."""

import math

import numpy as np

SQRT2 = math.sqrt(2.0)

# Seed of the pseudorandom product states in the entangling scan and of
# the random states behind `ybg verify schrodinger` (YBG_SEED overrides it
# on the command line).
DEFAULT_SEED = 0x5EED

IDENTITY_2 = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

SIGMA_PLUS = (SIGMA_X + 1j * SIGMA_Y) / 2   # |0><1|
SIGMA_MINUS = (SIGMA_X - 1j * SIGMA_Y) / 2  # |1><0|
