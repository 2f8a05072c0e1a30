"""Local gates, rotations, and the two CNOT synthesis routes."""

import itertools
import math

import numpy as np
import pytest

import ybgates
from expm_series import expm
from ybgates import gates
from ybgates.eightvertex import build_b_phi
from ybgates.gates import (
    _EVOLUTION_CORRECTOR,
    CNOT_PHASE_GATE,
    NonUnitAxisError,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    cnot,
    cnot_via_evolution,
    cnot_via_theorem1,
    conjugate_to_zx,
    conjugation_identities,
    global_phase_between,
    local_gates,
    projectors,
    rotation,
    transform_R_to_zx,
)
from ybgates.hamiltonian import axis_angle_pair, sigma_axis
from ybgates.linalg import DimensionMismatchError, kron, residual, unitarity_residuals

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def test_local_gates_values():
    g = local_gates()
    assert residual(g.alpha @ g.alpha, I2) < 1e-15
    assert np.array_equal(g.delta, np.diag([1.0 + 0.0j, 1.0j]))
    s2 = 1.0 / math.sqrt(2)
    assert residual(g.beta, np.array([[-s2, s2], [1j * s2, 1j * s2]])) == 0.0
    assert residual(g.gamma, np.array([[s2, 1j * s2], [s2, -1j * s2]])) == 0.0
    for gate in (g.alpha, g.beta, g.gamma, g.delta):
        assert float(unitarity_residuals(gate)) < 1e-12


def test_cnot_basics():
    c = cnot()
    assert residual(c @ c, I4) == 0.0
    ket10 = np.array([0, 0, 1, 0], dtype=complex)
    ket11 = np.array([0, 0, 0, 1], dtype=complex)
    assert np.array_equal(c @ ket10, ket11)


def test_cnot_from_projectors():
    p_up, p_down = projectors()
    assert residual(cnot(), kron(p_up, I2) + kron(p_down, SX)) == 0.0


def test_projectors():
    p_up, p_down = projectors()
    assert np.array_equal(p_up + p_down, I2)
    assert residual(p_up @ p_down, np.zeros((2, 2))) == 0.0
    assert np.array_equal(SZ @ p_up, p_up)


def test_cnot_via_theorem1_exact():
    # Brute-force oracle: rebuild the conjugation product from the frozen
    # local gates and the braid gate, independent of the module wiring.
    s2 = 1.0 / math.sqrt(2)
    alpha = np.array([[s2, s2], [s2, -s2]], dtype=complex)
    beta = np.array([[-s2, s2], [1j * s2, 1j * s2]], dtype=complex)
    gamma = np.array([[s2, 1j * s2], [s2, -1j * s2]], dtype=complex)
    delta = np.array([[1, 0], [0, 1j]], dtype=complex)
    braid = np.array(
        [[s2, 0, 0, s2], [0, s2, -s2, 0], [0, s2, s2, 0], [-s2, 0, 0, s2]],
        dtype=complex,
    )
    oracle = np.kron(alpha, beta) @ braid @ (-np.kron(gamma, delta))
    got = cnot_via_theorem1()
    assert residual(got, oracle) < 1e-15
    # Equality with CNOT is exact, not merely up to a global phase.
    assert residual(got, cnot()) < 1e-12
    assert global_phase_between(got, cnot()) == pytest.approx(1.0)


def test_theorem1_factors_unitary():
    g = local_gates()
    m = kron(g.alpha, g.beta)
    n = -kron(g.gamma, g.delta)
    assert float(unitarity_residuals(m)) < 1e-12
    assert float(unitarity_residuals(n)) < 1e-12


def test_rotation_examples():
    got = rotation(X_AXIS, math.pi / 2)
    assert residual(got, (I2 - 1j * SX) / math.sqrt(2)) < 1e-15
    assert residual(got, expm(-0.25j * math.pi * SX)) < 1e-13
    assert residual(rotation(Y_AXIS, 0.0), I2) == 0.0
    assert residual(rotation(Z_AXIS, 2.0 * math.pi), -I2) < 1e-15


def test_rotation_axis_composition():
    axis = tuple(v / math.sqrt(3.0) for v in (1.0, 1.0, 1.0))
    a = rotation(axis, 0.6)
    b = rotation(axis, 1.1)
    assert residual(a @ b, rotation(axis, 1.7)) < 1e-12
    assert float(unitarity_residuals(a)) < 1e-12


def test_rotation_rejects_non_unit_axis():
    nan = math.nan
    for axis in ((1.0, 1.0, 0.0), (nan, 0.0, 0.0), (1.0, nan, 0.0), (math.inf, 0.0, 0.0)):
        with pytest.raises(NonUnitAxisError):
            rotation(axis, 0.5)


def _rotation_oracle(axis, theta):
    # The uncached formula: sigma . n built afresh from the axis as given.
    nx, ny, nz = axis
    direction = nx * SX + ny * SY + nz * SZ
    return math.cos(theta / 2.0) * I2 - 1j * math.sin(theta / 2.0) * direction


def _signed_zero_variants(axis):
    # The axis with each zero component as +0.0 and as -0.0.
    return list(itertools.product(*[(0.0, -0.0) if v == 0 else (v,) for v in axis]))


def test_rotation_bit_identical_to_uncached_formula():
    rng = np.random.default_rng(1802)
    axes = [X_AXIS, Y_AXIS, Z_AXIS, (1, 0, 0), (0, -1, 0), (0, 0, 1)]
    for unit in np.eye(3).tolist():
        axes += _signed_zero_variants(unit) + _signed_zero_variants([-v for v in unit])
    for _ in range(40):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        axes += [tuple(v.tolist()), tuple(v)]  # Python and numpy floats
    axes.append((np.float32(0.6), np.float32(0.8), np.float32(-0.0)))
    thetas = [0.0, -0.0, math.pi / 2, -math.pi / 2, 1.3, -2.9, 7.5, -7.5]
    for axis in axes:
        for theta in thetas:
            got, want = rotation(axis, theta), _rotation_oracle(axis, theta)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (axis, theta)


def test_rotation_axis_cache_is_bounded_and_keyed_by_bits():
    gates._sigma_dot.cache_clear()
    for axis in (Z_AXIS, (0, 0, 1), (-0.0, 0.0, 1.0), Z_AXIS):
        rotation(axis, 0.3)
    # An int axis shares its float twin's entry; a -0.0 component does not.
    assert gates._sigma_dot.cache_info().currsize == 2
    rng = np.random.default_rng(1803)
    for _ in range(500):
        v = rng.standard_normal(3)
        rotation(tuple(v / np.linalg.norm(v)), 0.3)
    info = gates._sigma_dot.cache_info()
    assert info.maxsize is not None and info.currsize <= info.maxsize <= 16


def test_rotation_checks_the_axis_before_the_cache():
    gates._sigma_dot.cache_clear()
    for axis in ((1.0, 1.0, 0.0), (math.nan, 0.0, 1.0), (0.0, 0.0, -math.inf)):
        with pytest.raises(NonUnitAxisError):
            rotation(axis, 0.5)
    assert gates._sigma_dot.cache_info().currsize == 0


@pytest.mark.parametrize("phi", [0.0, math.pi / 2, 1.3])
def test_conjugation_identities(phi):
    first, second = conjugation_identities(phi)
    assert first < 1e-12
    assert second < 1e-12


def test_conjugation_identity_negative_control():
    # Flipping the x-rotation sign breaks the first identity badly.
    phi = 0.4
    alpha1, _ = axis_angle_pair(phi)
    wrong = (
        rotation(X_AXIS, -math.pi / 2)
        @ rotation(Z_AXIS, -phi / 2)
        @ sigma_axis(alpha1)
        @ rotation(Z_AXIS, phi / 2)
        @ rotation(X_AXIS, math.pi / 2)
    )
    assert residual(wrong, SZ) > 0.5


@pytest.mark.parametrize("phi", [0.0, 0.7, 1.2])
def test_conjugate_to_zx(phi):
    for theta in (0.0, 0.9, math.pi / 2):
        got = conjugate_to_zx(phi, theta)
        assert residual(got, expm(-0.5j * theta * kron(SZ, SX))) < 1e-12
        p_up, p_down = projectors()
        split = kron(p_up, expm(-0.5j * theta * SX)) + kron(p_down, expm(0.5j * theta * SX))
        assert residual(got, split) < 1e-12
    assert residual(conjugate_to_zx(phi, 0.0), I4) < 1e-12


def test_conjugate_to_zx_quarter_turn():
    got = conjugate_to_zx(0.7, math.pi / 2)
    assert residual(got, expm(-0.25j * math.pi * kron(SZ, SX))) < 1e-12


def test_cnot_via_evolution():
    assert residual(cnot_via_evolution(0.7), cnot()) < 1e-12
    outputs = [cnot_via_evolution(phi) for phi in (0.0, math.pi / 3, 1.2)]
    for a in outputs:
        for b in outputs:
            assert residual(a, b) < 1e-12
        assert float(unitarity_residuals(a)) < 1e-12


def test_cnot_via_evolution_closed_form_corrector():
    # exp(i pi/4 sigma_x) in closed form, against the series oracle.
    oracle = kron(CNOT_PHASE_GATE, expm(0.25j * math.pi * SX))
    assert residual(_EVOLUTION_CORRECTOR, oracle) < 1e-15
    for phi in np.linspace(0.0, 2.0 * math.pi, 17):
        assert residual(cnot_via_evolution(float(phi)), cnot()) < 1e-12


def test_gate_routes_do_not_call_expm(monkeypatch):
    # The series lives only in the tests' oracle; no module of the package
    # binds one, and the routes still build with the oracle refusing.
    import expm_series
    import ybgates.cli
    import ybgates.hamiltonian
    import ybgates.linalg

    def refuse(a):
        raise AssertionError("a gate was built with expm")

    modules = (ybgates, gates, ybgates.cli, ybgates.hamiltonian, ybgates.linalg)
    assert not [m.__name__ for m in modules if hasattr(m, "expm")]
    monkeypatch.setattr(expm_series, "expm", refuse)
    assert residual(cnot_via_evolution(0.7), cnot()) < 1e-12
    target = (I4 + 1j * kron(SZ, SX)) / math.sqrt(2.0)
    assert residual(transform_R_to_zx(), target) < 1e-12


def test_cnot_via_evolution_rejected_phase_sign():
    # diag(1, i) instead of diag(1, -i) flips the target block.
    rejected = np.diag([1.0 + 0.0j, 1.0j])
    candidate = kron(rejected, expm(0.25j * math.pi * SX)) @ conjugate_to_zx(0.7, math.pi / 2)
    assert residual(candidate, cnot()) > 0.5
    assert np.array_equal(CNOT_PHASE_GATE, np.diag([1.0 + 0.0j, -1.0j]))


def test_cnot_via_evolution_wrong_theta():
    assert residual(cnot_via_evolution(0.7, theta=0.3), cnot()) > 0.5


def test_transform_R_to_zx():
    got = transform_R_to_zx()
    assert residual(got, expm(0.25j * math.pi * kron(SZ, SX))) < 1e-12
    assert float(unitarity_residuals(got)) < 1e-12
    # The conjugated factor is the braid gate itself.
    assert residual(expm(0.25j * math.pi * kron(SX, SY)), build_b_phi("-", 0.0)) < 1e-12


def test_conjugations_build_each_frame_once(monkeypatch):
    # Each inverse is the frame's adjoint, so no rotation is built twice.
    calls = []

    def spy(axis, theta):
        calls.append((axis, theta))
        return rotation(axis, theta)

    monkeypatch.setattr(gates, "rotation", spy)
    counts = []
    for route in (
        lambda: cnot_via_evolution(0.7),
        lambda: conjugation_identities(0.7),
        transform_R_to_zx,
    ):
        calls.clear()
        route()
        counts.append(len(calls))
    assert counts == [1, 1, 2]


def test_global_phase_between():
    target = cnot()
    assert global_phase_between(1j * target, target) == pytest.approx(-1j)
    shifted = np.exp(0.3j) * target
    phase = global_phase_between(shifted, target)
    assert phase is not None
    assert abs(phase - np.exp(-0.3j)) < 1e-12
    assert global_phase_between(kron(SX, SX), target) is None


@pytest.mark.parametrize(
    "candidate, target",
    [(np.diag([1, 1, 1, 2.0]), I2), (I2, np.diag([1, 1, 1, 2.0]))],
    ids=["candidate-larger", "target-larger"],
)
def test_global_phase_between_refuses_unequal_shapes(candidate, target):
    with pytest.raises(DimensionMismatchError, match="shape mismatch"):
        global_phase_between(candidate, target)
