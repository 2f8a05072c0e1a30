"""Unitary braid-family two-qubit gates, their generating Hamiltonians,
and everything needed to verify them to machine precision."""

from .eightvertex import (
    EIGENVALUES,
    PHI_EIGENVALUES,
    EightVertexWeights,
    ZeroDeformationError,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_b_stack,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    build_R_x_normalized_stack,
    check_constraints,
    R_x_family,
    rho,
    theta_from_x,
)
from .entangle import (
    EntanglingVerdict,
    NonUnitaryGateError,
    apply_gate,
    bell_from_b,
    concurrence,
    is_entangling,
    r_theta_action,
)
from .gates import (
    LocalGateSet,
    NonUnitAxisError,
    cnot,
    cnot_via_evolution,
    cnot_via_theorem1,
    conjugate_to_zx,
    conjugation_identities,
    local_gates,
    projectors,
    rotation,
    transform_R_to_zx,
)
from .hamiltonian import (
    PauliDecomposition,
    R_from_H,
    evolution_U,
    generator_fd,
    hamiltonian_const,
    hamiltonian_x,
    pauli_decompose,
    schrodinger_residuals,
    sigma_axis,
)
from .linalg import (
    DimensionMismatchError,
    dagger,
    kron,
    residual,
    residuals,
    unitarity_residuals,
)
from .yangbaxter import (
    braid_residuals,
    inverse_from_eigenvalues,
    qybe_residuals,
    verify_two_eigenvalues,
    yang_baxterize,
)

__version__ = "0.1.0"
