"""Work that depends on no argument is built once per process, on first use.

Each rewritten call is compared with the formula it replaced, bit for bit
(signed zeros included); public results are fresh writable arrays, the
cached constants are read-only, and importing the package builds none of
them.
"""

import math
import struct
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from ybgates import cli, eightvertex, gates, hamiltonian, linalg, yangbaxter
from ybgates.eightvertex import build_b_phi, build_b_stack, build_R_x_normalized_stack
from ybgates.entangle import r_theta_concurrences
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
    hamiltonian_x,
    interaction_operator,
    pauli_decompose,
    sigma_axis,
)
from ybgates.linalg import dagger, kron, map_floats, residual, unitarity_residual
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
    (gates, "_cnot"),
    (gates, "_sigma_dot"),
    (gates, "_theorem1"),
    (hamiltonian, "_pauli_gather"),
    (linalg, "_eye"),
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
    u = np.asarray(u, dtype=complex)
    return residual(u @ dagger(u), np.eye(u.shape[0], dtype=complex))


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_unitarity_residual_matches_residual_oracle():
    rng = np.random.default_rng(1201)
    cases = [build_b_phi(s, float(p)) for s in "+-" for p in rng.uniform(-7.0, 7.0, 50)]
    cases += [_random_matrix(rng) for _ in range(200)]
    cases += [rng.standard_normal((n, n)) for n in (1, 2, 3, 8)]
    for bad in (math.nan, math.inf, -math.inf):
        spoiled = build_b_phi("+", 0.3)
        spoiled[1, 2] = bad
        cases += [spoiled, np.full((4, 4), bad, dtype=complex)]
    for u in cases:
        assert _same_bits(unitarity_residual(u), _unitarity_oracle(u))
    assert math.isnan(unitarity_residual(np.full((4, 4), math.nan)))


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
    [cnot, cnot_via_theorem1, lambda: evolution_U("+", 0.4, 0.3)],
    ids=["cnot", "cnot_via_theorem1", "evolution_U"],
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
    arrays += [*hamiltonian._pauli_gather(), linalg._eye(4), linalg._eye(2)]
    arrays += [cli._schrodinger_states()]
    arrays += [yangbaxter._path_tables(False), yangbaxter._path_tables(True)]
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
