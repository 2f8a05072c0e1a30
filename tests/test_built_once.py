"""Work that depends on no argument is built once per process, on first use.

Each rewritten call is compared with the formula it replaced, bit for bit
(signed zeros included); public results are fresh writable arrays, the
cached constants are read-only, and importing the package builds none of
them.
"""

import math
import re
import struct
import subprocess
import sys
import tracemalloc
from decimal import Decimal

import numpy as np
import pytest

from ybgates import cli, eightvertex, gates, hamiltonian, linalg, yangbaxter
from ybgates.eightvertex import (
    angle_form,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_b_stack,
    build_R_theta,
    build_R_x_normalized_stack,
)
from ybgates.entangle import NonUnitaryGateError, basis_state, bell_from_b, r_theta_concurrences
from ybgates.gates import (
    CNOT_PHASE_GATE,
    X_AXIS,
    Y_AXIS,
    Z_AXIS,
    cnot,
    cnot_via_evolution,
    cnot_via_theorem1,
    conjugate_to_zx,
    conjugation_identities,
    local_gates,
    rotation,
    transform_R_to_zx,
)
from ybgates.hamiltonian import (
    axis_angle_pair,
    evolution_U,
    hamiltonian_const,
    hamiltonian_form,
    hamiltonian_x,
    interaction_operator,
    pauli_decompose,
    sigma_axis,
)
from ybgates.linalg import kron, map_floats, residual, unitarity_residuals
from ybgates.paulis import SQRT2
from test_cli import _schrodinger_states as _schrodinger_states_oracle

PAULIS = (
    np.eye(2, dtype=complex),
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)
# Every cache this module covers, as (module, function name).
CACHES = [
    (cli, "_schrodinger_states"),
    (eightvertex, "_b_phi_of_bits"),
    (gates, "_cnot"),
    (gates, "_sigma_dot"),
    (gates, "_theorem1"),
    (hamiltonian, "_pauli_gather"),
    (linalg, "_eye"),
    (linalg, "_gram_tables"),
    (yangbaxter, "_path_tables"),
]


def _same_bits(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return (
        got.shape == want.shape
        and np.array_equal(got, want, equal_nan=True)
        and np.array_equal(np.signbit(got.real), np.signbit(want.real))
        and np.array_equal(np.signbit(got.imag), np.signbit(want.imag))
    )


def _random_matrix(rng) -> np.ndarray:
    m = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    # Zeros of both signs in either part, where the dense products add
    # signed zero terms that the gather leaves out.
    for part in (m.real, m.imag):
        part[rng.random((4, 4)) < 0.3] = 0.0
        part[rng.random((4, 4)) < 0.3] = -0.0
    return m


# --- bit identity with the formulas replaced ----------------------------


def _pauli_trace_oracle(m):
    return np.array(
        [[np.trace(kron(a, b) @ m) / 4.0 for b in PAULIS] for a in PAULIS]
    )


def test_pauli_decompose_matches_trace_oracle_on_seeded_matrices():
    rng = np.random.default_rng(1200)
    for _ in range(1000):
        m = _random_matrix(rng)
        assert _same_bits(pauli_decompose(m).coefficients, _pauli_trace_oracle(m))


def test_pauli_decompose_matches_trace_oracle_on_hamiltonians():
    phis = [0.0, -0.0, math.pi / 2, math.pi] + np.linspace(-7.0, 7.0, 41).tolist()
    for sign in "+-":
        for phi in phis:
            ms = [hamiltonian_const(sign, phi)]
            ms += [hamiltonian_x(sign, phi, x) for x in (-2.5, -0.0, 0.0, 0.37, 1.0, 4.0)]
            for m in ms:
                assert _same_bits(pauli_decompose(m).coefficients, _pauli_trace_oracle(m))


def _unitarity_oracle(u):
    """Residual of u u^H against I for each matrix of a (..., n, n) stack,
    in fixed order: entry (i, j) is the sum over k of u[i, k] conj(u[j, k]),
    added one at a time in increasing k. Arithmetic runs on numpy arrays
    over the matrices, as numpy's scalar complex multiply rounds differently."""
    u = np.asarray(u, dtype=complex)
    n = u.shape[-1]
    m = u.reshape(-1, n, n)
    worst = np.zeros(len(m))
    for i in range(n):
        for j in range(n):
            entry = m[:, i, 0] * m[:, j, 0].conj()
            for k in range(1, n):
                entry = entry + m[:, i, k] * m[:, j, k].conj()
            worst = np.maximum(worst, np.abs(entry - (i == j)))
    return worst.reshape(u.shape[:-2])


def _assert_unitarity_oracle(got, u):
    """got has the oracle's bits where the oracle is finite, and is
    non-finite where it is not; there the values may differ, as the tables
    leave out structurally zero entries, where the oracle can make NaN."""
    want = _unitarity_oracle(u)
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert _same_bits(np.where(finite, got, 0.0), np.where(finite, want, 0.0))


def _spoiled_b_phi():
    """b(0.3) with NaN or an infinity on b's pattern, at (0, 3), or off it,
    at (1, 3), and matrices of one such value."""
    cases = []
    for bad in (math.nan, math.inf, -math.inf, complex(0.0, math.inf)):
        for at in ((0, 3), (1, 3)):
            spoiled = build_b_phi("+", 0.3)
            spoiled[at] = bad
            cases.append(spoiled)
        cases.append(np.full((4, 4), bad, dtype=complex))
    return cases


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_unitarity_residual_matches_residual_oracle():
    rng = np.random.default_rng(1201)
    cases = [build_b_phi(s, float(p)) for s in "+-" for p in rng.uniform(-7.0, 7.0, 50)]
    cases += [_random_matrix(rng) for _ in range(200)]
    cases += [rng.standard_normal((n, n)) for n in (1, 2, 3, 8)]
    for u in cases + _spoiled_b_phi():
        _assert_unitarity_oracle(float(unitarity_residuals(u)), u)
    assert math.isnan(float(unitarity_residuals(np.full((4, 4), math.nan))))


def _unitarity_stack(rng) -> np.ndarray:
    """976 matrices: 732 of the family, b(phi), R(x) and R(theta), with
    signed zeros among their entries, then 244 dense ones."""
    phi = np.concatenate([[0.0, -0.0, math.pi, -math.pi], rng.uniform(-7.0, 7.0, 57)])
    x = np.concatenate([[0.0, -0.0, 1.0, -1.0], rng.uniform(-3.0, 3.0, 57)])
    theta = np.concatenate([[0.0, -0.0, math.pi / 4, math.pi / 2], rng.uniform(-4.0, 4.0, 57)])
    parts = []
    for sign in "+-":
        parts.append(build_b_phi_stack(sign, phi))
        parts.append(build_R_x_normalized_stack(sign, phi[:3, None], x))
        parts.append(angle_form(build_b_phi_stack(sign, phi[:2])[:, None], theta[:, None, None]))
    parts.append([_random_matrix(rng) for _ in range(244)])
    return np.concatenate([np.reshape(part, (-1, 4, 4)) for part in parts])


def test_unitarity_residuals_match_oracle_in_calls_of_any_size():
    # On b's pattern a matrix costs 16 products: 8 entries of 2 paths.
    assert linalg._gram_tables(4, False).shape == (2, 2, 8)
    rng = np.random.default_rng(1206)
    stack = _unitarity_stack(rng)
    # A call of family matrices alone takes the eight-vertex tables; one
    # that holds a dense matrix takes the dense tables for all of them.
    for size in (1, 61, 488, 976):
        got = [unitarity_residuals(stack[i : i + size]) for i in range(0, len(stack), size)]
        _assert_unitarity_oracle(np.concatenate(got), stack)
    for n in (1, 2, 3, 8):
        stack = rng.standard_normal((61, n, n)) + 1j * rng.standard_normal((61, n, n))
        stack.real[rng.random(stack.shape) < 0.2] = -0.0
        _assert_unitarity_oracle(unitarity_residuals(stack), stack)
        _assert_unitarity_oracle(np.array([float(unitarity_residuals(m)) for m in stack]), stack)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_non_finite_matrices_leave_the_rest_of_the_call_unchanged():
    family = build_b_phi_stack("-", np.linspace(-3.0, 3.0, 61))
    want = unitarity_residuals(family)
    for bad in _spoiled_b_phi():
        stack = np.insert(family, 30, bad, axis=0)
        got = unitarity_residuals(stack)
        _assert_unitarity_oracle(got, stack)
        assert not np.isfinite(got[30])
        assert _same_bits(np.delete(got, 30), want)


def test_unitarity_residuals_hold_only_the_gathered_factors():
    stack = build_R_x_normalized_stack("+", 0.3, np.linspace(-3.0, 3.0, 20_000))
    unitarity_residuals(stack[:1])  # build the tables
    tracemalloc.start()
    try:
        unitarity_residuals(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 32 complex factors and 8 complex entries per matrix, as many bytes as
    # u @ u^H - I held through zgemm.
    assert peak < 40 * 16 * len(stack) + 65536


def _conjugate_to_zx_oracle(phi, theta):
    # The uncached construction: every rotation and identity built afresh.
    dz_minus = rotation(Z_AXIS, -phi / 2.0)
    dz_plus = rotation(Z_AXIS, phi / 2.0)
    dx_plus = rotation(X_AXIS, math.pi / 2.0)
    dx_minus = rotation(X_AXIS, -math.pi / 2.0)
    evolution = (
        math.cos(theta / 2.0) * np.eye(4, dtype=complex)
        - 1j * math.sin(theta / 2.0) * interaction_operator("+", phi)
    )
    left = kron(dx_plus @ dz_minus, dz_minus)
    right = kron(dz_plus @ dx_minus, dz_plus)
    return left @ evolution @ right


def _cnot_via_evolution_oracle(phi, theta=math.pi / 2.0):
    quarter = math.cos(math.pi / 4.0) * np.eye(2, dtype=complex) + 1j * math.sin(
        math.pi / 4.0
    ) * PAULIS[1]
    return kron(CNOT_PHASE_GATE, quarter) @ _conjugate_to_zx_oracle(phi, theta)


def test_evolution_route_matches_uncached_rebuild():
    rng = np.random.default_rng(1202)
    phis = [0.0, -0.0] + rng.uniform(-10.0, 10.0, 200).tolist()
    thetas = rng.uniform(-4.0, 4.0, len(phis)).tolist()
    for phi, theta in zip(phis, thetas):
        assert _same_bits(cnot_via_evolution(phi), _cnot_via_evolution_oracle(phi))
        assert _same_bits(conjugate_to_zx(phi, theta), _conjugate_to_zx_oracle(phi, theta))
        assert _same_bits(
            cnot_via_evolution(phi, theta), _cnot_via_evolution_oracle(phi, theta)
        )


def _parent_rotation(axis, theta):
    nx, ny, nz = axis
    direction = nx * PAULIS[1] + ny * PAULIS[2] + nz * PAULIS[3]
    return math.cos(theta / 2.0) * PAULIS[0] - 1j * math.sin(theta / 2.0) * direction


def _parent_conjugate_to_zx(phi, theta):
    # Written out with np.kron and a fresh sigma . n per rotation, as
    # before either was shortened.
    dz_minus = _parent_rotation(Z_AXIS, -phi / 2.0)
    dz_plus = _parent_rotation(Z_AXIS, phi / 2.0)
    dx_plus = _parent_rotation(X_AXIS, math.pi / 2.0)
    dx_minus = _parent_rotation(X_AXIS, -math.pi / 2.0)
    alpha1, alpha2 = axis_angle_pair(phi)
    coupling = np.kron(sigma_axis(alpha1), sigma_axis(alpha2))
    evolution = (
        math.cos(theta / 2.0) * np.eye(4, dtype=complex)
        - 1j * math.sin(theta / 2.0) * coupling
    )
    left = np.kron(dx_plus @ dz_minus, dz_minus)
    right = np.kron(dz_plus @ dx_minus, dz_plus)
    return left @ evolution @ right


def test_evolution_route_matches_parent_formula():
    quarter = math.cos(math.pi / 4.0) * PAULIS[0] + 1j * math.sin(math.pi / 4.0) * PAULIS[1]
    corrector = np.kron(CNOT_PHASE_GATE, quarter)
    rng = np.random.default_rng(1804)
    phis = [0.0, -0.0, math.pi, -math.pi] + rng.uniform(-10.0, 10.0, 300).tolist()
    thetas = [0.0, -0.0, math.pi / 2.0, -math.pi / 2.0] + rng.uniform(-7.0, 7.0, 300).tolist()
    for phi, theta in zip(phis, thetas):
        want = _parent_conjugate_to_zx(phi, theta)
        assert _same_bits(conjugate_to_zx(phi, theta), want)
        assert _same_bits(cnot_via_evolution(phi, theta), corrector @ want)
        assert _same_bits(
            cnot_via_evolution(phi), corrector @ _parent_conjugate_to_zx(phi, math.pi / 2.0)
        )


def test_transform_R_to_zx_matches_parent_formula():
    quarter = (
        math.cos(math.pi / 4.0) * np.eye(4, dtype=complex)
        + 1j * math.sin(math.pi / 4.0) * np.kron(PAULIS[1], PAULIS[2])
    )
    half = math.pi / 2.0
    left = np.kron(_parent_rotation(Y_AXIS, -half), _parent_rotation(Z_AXIS, -half))
    right = np.kron(_parent_rotation(Y_AXIS, half), _parent_rotation(Z_AXIS, half))
    assert _same_bits(transform_R_to_zx(), left @ quarter @ right)


def test_conjugation_identities_match_uncached_rebuild():
    for phi in [0.0, -0.0] + np.linspace(-7.0, 7.0, 29).tolist():
        alpha1, alpha2 = axis_angle_pair(phi)
        dz_minus, dz_plus = rotation(Z_AXIS, -phi / 2.0), rotation(Z_AXIS, phi / 2.0)
        dx_plus = rotation(X_AXIS, math.pi / 2.0)
        dx_minus = rotation(X_AXIS, -math.pi / 2.0)
        first = dx_plus @ dz_minus @ sigma_axis(alpha1) @ dz_plus @ dx_minus
        second = dz_minus @ sigma_axis(alpha2) @ dz_plus
        want = (residual(first, PAULIS[3]), residual(second, PAULIS[1]))
        assert conjugation_identities(phi) == want


def test_theorem1_and_cnot_match_uncached_rebuild():
    g = local_gates()
    product = kron(g.alpha, g.beta) @ build_b_phi("-", 0.0) @ -kron(g.gamma, g.delta)
    assert _same_bits(cnot_via_theorem1(), product)
    literal = np.array(
        [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
    )
    assert _same_bits(cnot(), literal)


def _b_phi_oracle(sign, phi):
    # build_b_phi as written before b(phi) was cached.
    return build_b(sign, np.exp(-1j * phi)) / SQRT2


def test_b_phi_readers_match_uncached_rebuild():
    rng = np.random.default_rng(1205)
    phis = [0.0, -0.0, math.pi, -math.pi, 1e6, -1e6, 1e300, -1e300]
    phis += rng.uniform(-10.0, 10.0, 24).tolist()  # four times the cache's 8 entries
    points = [(str(rng.choice(["+", "-"])), phi) for phi in phis]
    # The second pass comes back to each point after the cache evicted it.
    for sign, phi in points + points[::-1]:
        b = _b_phi_oracle(sign, phi)
        theta, x, index = rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0), int(rng.integers(4))
        assert _same_bits(build_b_phi(sign, phi), b)
        assert _same_bits(build_R_theta(sign, phi, theta), angle_form(b, theta))
        assert _same_bits(hamiltonian_const(sign, phi), hamiltonian_form(b, 1.0))
        assert _same_bits(hamiltonian_x(sign, phi, x), hamiltonian_form(b, x))
        assert _same_bits(bell_from_b(sign, phi, index), b @ basis_state(index))


def test_one_b_phi_build_per_sign_and_angle(monkeypatch):
    builds = []

    def counting(sign, q):
        builds.append((sign, q))
        return build_b(sign, q)

    monkeypatch.setattr(eightvertex, "build_b", counting)
    eightvertex._b_phi_of_bits.cache_clear()
    for phi, want in ((0.0, 1), (-0.0, 2)):
        build_R_theta("-", phi, 0.3)
        bell_from_b("-", phi, 2)
        hamiltonian_const("-", phi)
        hamiltonian_x("-", phi, 0.7)
        assert len(builds) == want


_B_PHI_READERS = pytest.mark.parametrize(
    "read",
    [
        build_b_phi,
        lambda sign, phi: build_R_theta(sign, phi, 0.3),
        hamiltonian_const,
        lambda sign, phi: hamiltonian_x(sign, phi, 0.7),
        lambda sign, phi: bell_from_b(sign, phi, 1),
    ],
    ids=["build_b_phi", "build_R_theta", "hamiltonian_const", "hamiltonian_x", "bell_from_b"],
)


@_B_PHI_READERS
def test_b_phi_readers_refuse_what_they_refused(read):
    for sign in ("x", None, ["+"]):
        with pytest.raises(ValueError, match="sign must be"):
            read(sign, 0.3)
    for phi in ("0.3", None, [0.3], Decimal("0.3")):
        with pytest.raises(TypeError):
            read("+", phi)


@_B_PHI_READERS
def test_b_phi_readers_refuse_complex_and_array_angles(read):
    # A complex phi gave a non-unitary b(phi), an array numpy's ValueError.
    for phi in (1j, 0.3 + 0j, np.complex64(0.3), np.array(0.3), np.array([0.3]), np.zeros(2)):
        with pytest.raises(TypeError, match=re.escape(f"phi must be one real number, got {phi!r}")):
            read("+", phi)


def test_b_phi_keeps_the_bits_of_int_and_numpy_real_angles():
    for phi in (3, -0, True, np.int64(-2), np.float16(1.5), np.float32(0.3), np.float64(0.3)):
        for sign in "+-":
            assert _same_bits(build_b_phi(sign, phi), _b_phi_oracle(sign, phi))


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_bell_from_b_refuses_non_finite_angles_from_the_cache():
    for phi in (math.nan, math.inf, -math.inf):
        for _ in range(2):  # built, then read from the cache
            with pytest.raises(NonUnitaryGateError):
                bell_from_b("+", phi, 0)


def test_evolution_U_matches_fresh_identity():
    for sign in "+-":
        for phi, theta in [(0.0, 0.0), (-0.0, math.pi), (1.3, -0.4), (5.0, 2.2)]:
            want = math.cos(theta / 2.0) * np.eye(4, dtype=complex) - 1j * math.sin(
                theta / 2.0
            ) * interaction_operator(sign, phi)
            assert _same_bits(evolution_U(sign, phi, theta), want)


def test_schrodinger_states_match_per_draw_oracle():
    cached = cli._schrodinger_states()
    assert cached is cli._schrodinger_states()
    assert cached.tobytes() == _schrodinger_states_oracle().tobytes()


def test_verify_exponential_makes_one_evolution_form_call(monkeypatch):
    # One stacked call gives U at each theta, each theta/2 and pi for every
    # (sign, phi), and each of its matrices is evolution_U's, bit for bit.
    calls = []

    def recording(op, theta):
        calls.append(hamiltonian.evolution_form(op, theta))
        return calls[-1]

    monkeypatch.setattr(cli, "evolution_form", recording)
    thetas = np.linspace(0.0, 2.0 * math.pi, 9).tolist()
    angles = thetas + [t / 2.0 for t in thetas] + [math.pi]
    for signs, phi_grid in (("+-", 8), ("-", 3), ("+", 1)):
        calls.clear()
        sign = ["--sign", signs] if len(signs) == 1 else []
        assert cli.main(["verify", "exponential", "--phi-grid", str(phi_grid), *sign]) == 0
        [u] = calls
        want = [
            [[evolution_U(s, 2.0 * math.pi * k / phi_grid, t) for t in angles]
             for k in range(phi_grid)]
            for s in signs
        ]
        assert _same_bits(u, want)


@pytest.mark.parametrize(
    "relation, builds",
    # schrodinger builds one b: H(x) takes its b(phi) from the family at x = 0.
    [("braid", 1), ("schrodinger", 1), ("exponential", 1)],
    ids=["braid", "schrodinger", "exponential"],
)
def test_verify_builds_b_for_both_signs_in_one_call(monkeypatch, relation, builds):
    # Each b a runner builds is one build_b_stack call that holds both signs'
    # labels, so the call count is the same with --sign and without it.
    labels = []

    def recording(sign, q):
        labels.append(sorted(set(np.ravel(sign).tolist())))
        return build_b_stack(sign, q)

    monkeypatch.setattr(eightvertex, "build_b_stack", recording)
    for sign, want in ((["--sign", "-"], ["-"]), ([], ["+", "-"])):
        labels.clear()
        assert cli.main(["verify", relation, *sign]) == 0
        assert labels == [want] * builds


# --- fresh results, read-only caches, nothing built at import -----------


@pytest.mark.parametrize(
    "build",
    [cnot, cnot_via_theorem1, lambda: evolution_U("+", 0.4, 0.3), lambda: build_b_phi("-", 0.4)],
    ids=["cnot", "cnot_via_theorem1", "evolution_U", "build_b_phi"],
)
def test_public_results_are_fresh_writable_arrays(build):
    first = build()
    want = first.copy()
    assert first.flags.writeable
    first[...] = 7.0
    second = build()
    assert second is not first and not np.shares_memory(first, second)
    assert np.array_equal(second, want)


def test_local_gates_are_fresh_writable_arrays():
    first = local_gates()
    want = [first.alpha.copy(), first.beta.copy(), first.gamma.copy(), first.delta.copy()]
    for gate in (first.alpha, first.beta, first.gamma, first.delta):
        assert gate.flags.writeable
        gate[...] = 7.0
    second = local_gates()
    got = [second.alpha, second.beta, second.gamma, second.delta]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def test_cached_constants_are_read_only():
    # Fill every cache first.
    cnot_via_theorem1()
    cnot_via_evolution(0.2)
    pauli_decompose(np.eye(4))
    arrays = [gates._cnot(), gates._theorem1(), gates._X_QUARTER_TURN]
    arrays += [gates._X_QUARTER_TURN_ADJOINT, eightvertex._b_phi("+", 0.3)]
    arrays += [*hamiltonian._pauli_gather(), linalg._eye(4), linalg._eye(2)]
    arrays += [cli._schrodinger_states()]
    arrays += [yangbaxter._path_tables(False), yangbaxter._path_tables(True)]
    arrays += [linalg._gram_tables(4, False), linalg._gram_tables(4, True)]
    for a in arrays:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 0


def test_rotation_returns_fresh_arrays_over_a_read_only_cache():
    first = rotation(Z_AXIS, 0.4)
    want = _parent_rotation(Z_AXIS, 0.4)
    assert first.flags.writeable
    first[...] = 7.0
    assert _same_bits(rotation(Z_AXIS, 0.4), want)
    for axis in (X_AXIS, Y_AXIS, Z_AXIS, (-0.0, 0.0, 1.0)):
        rotation(axis, 0.1)
        cached = gates._sigma_dot(struct.pack("3d", *axis))
        assert not cached.flags.writeable
        with pytest.raises(ValueError):
            cached[0] = 0


def test_import_builds_no_cache():
    names = ", ".join(f"ybgates.{m.__name__.rsplit('.', 1)[1]}.{f}" for m, f in CACHES)
    code = (
        "import ybgates, ybgates.cli\n"
        f"print([f.cache_info().currsize for f in ({names},)])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == str([0] * len(CACHES))


# --- Python-float steps in bounded blocks --------------------------------


@pytest.mark.parametrize("shape", [(), (0,), (1,), (3, 5), (2500,), (7, 1, 300)])
def test_map_floats_matches_whole_array_list(shape):
    x = np.random.default_rng(1203).uniform(-9.0, 9.0, shape)
    for f in (math.cos, math.sin, lambda v: math.sqrt(1.0 + v * v)):
        want = np.reshape([f(v) for v in x.ravel().tolist()], x.shape)
        got = map_floats(f, x)
        assert got.shape == x.shape and _same_bits(got, want)


def test_map_floats_temporaries_are_bounded():
    x = np.linspace(-1.0, 1.0, 200_000)
    tracemalloc.start()
    try:
        map_floats(math.cos, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 1.6 MB result plus one block; a whole-array list of 200 000
    # Python floats alone would hold over 6 MB.
    assert peak < 3_000_000


def test_stacks_are_block_size_independent(monkeypatch):
    rng = np.random.default_rng(1204)
    phi, x = rng.uniform(0.0, 6.0, (3, 1)), rng.uniform(-3.0, 3.0, 50)
    theta = rng.uniform(-2.0, 2.0, 70)
    want = build_R_x_normalized_stack("+", phi, x), r_theta_concurrences("-", 0.4, theta)
    monkeypatch.setattr(linalg, "_FLOAT_BLOCK", 7)
    got = build_R_x_normalized_stack("+", phi, x), r_theta_concurrences("-", 0.4, theta)
    assert all(_same_bits(a, b) for a, b in zip(got, want))


def test_sweep_allocates_results_before_the_kernel(monkeypatch):
    events = []
    real_empty = np.empty

    def spy_empty(shape, *args, **kwargs):
        events.append(("empty", shape))
        return real_empty(shape, *args, **kwargs)

    flags, kernel = cli._SWEEPS[("unitarity", "x")]

    def spy_kernel(**values):
        events.append(("kernel",))
        return kernel(**values)

    monkeypatch.setitem(cli._SWEEPS, ("unitarity", "x"), (flags, spy_kernel))
    monkeypatch.setattr(np, "empty", spy_empty)
    assert cli.main(["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1", "--steps", "5"]) == 0
    assert events.index(("empty", 5)) < events.index(("kernel",))
