"""State action, Bell states, concurrence, and the entangling detector."""

import hashlib
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ybgates import entangle
from ybgates.eightvertex import (
    build_b_phi,
    build_R_theta,
    build_R_x_normalized,
    sign_value,
)
from ybgates.entangle import (
    DEFAULT_THRESHOLD,
    NonUnitaryGateError,
    _probe_stack,
    apply_gate,
    basis_state,
    bell_from_b,
    concurrence,
    is_entangling,
    r_theta_action,
    r_theta_concurrences,
)
from ybgates.gates import cnot
from ybgates.linalg import (
    DimensionMismatchError,
    kron,
    unitarity_residual,
    unitarity_residuals,
)

I4 = np.eye(4, dtype=complex)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
)


def _scan_oracle(gate):
    # The per-state scan the batched is_entangling replaced: apply the gate
    # to each probe state in turn and keep the first strictly larger
    # concurrence, starting from 0.0.
    best, best_state = 0.0, None
    for state in _probe_stack():
        out = gate @ state
        c = concurrence(out)
        if c > best:
            best, best_state = c, out
    entangling = best > DEFAULT_THRESHOLD
    return entangling, best_state if entangling else None, best


def _assert_matches_oracle(gate):
    verdict = is_entangling(gate)
    entangling, witness, best = _scan_oracle(np.asarray(gate, dtype=complex))
    assert verdict.entangling == entangling
    assert verdict.concurrence_max == best
    assert type(verdict.concurrence_max) is float
    if witness is None:
        assert verdict.witness is None
    else:
        assert np.array_equal(verdict.witness, witness)


def _expected_action(sign, phi, theta, index):
    # Closed-form columns: cos(pi/4 - theta) on the input ket plus
    # sin(pi/4 - theta) times the flip partner with the family's phases.
    s = sign_value(sign)
    u = math.pi / 4.0 - theta
    c, sn = math.cos(u), math.sin(u)
    out = np.zeros(4, dtype=complex)
    if index == 0:
        out[0], out[3] = c, -np.exp(1j * phi) * sn
    elif index == 1:
        out[1], out[2] = c, -s * sn
    elif index == 2:
        out[2], out[1] = c, s * sn
    else:
        out[3], out[0] = c, np.exp(-1j * phi) * sn
    return out


def test_apply_gate_identity():
    psi = np.array([0.5, 0.5, 0.5, 0.5], dtype=complex)
    assert np.array_equal(apply_gate(I4, psi), psi)


def test_apply_gate_cnot():
    assert np.array_equal(apply_gate(cnot(), basis_state(2)), basis_state(3))


def test_apply_gate_bell_output():
    got = apply_gate(build_b_phi("+", 0.0), basis_state(0))
    expected = np.array([1, 0, 0, -1], dtype=complex) / math.sqrt(2)
    assert np.max(np.abs(got - expected)) < 1e-15
    assert abs(np.linalg.norm(got) - 1.0) < 1e-12


def test_apply_gate_rejects_non_unitary():
    with pytest.raises(NonUnitaryGateError):
        apply_gate(2.0 * I4, basis_state(0))


@pytest.mark.parametrize(
    "shape",
    [(4, 4), (4, 2), (3,), (5,), (), (1, 4)],
    ids=["4x4", "4x2", "3-vector", "5-vector", "scalar", "1x4"],
)
def test_apply_gate_refuses_non_state_shapes(shape):
    # Only a (4,) vector is a two-qubit state: a matrix is not applied as
    # if it were one, and other sizes do not reach numpy's own message.
    with pytest.raises(DimensionMismatchError, match=re.escape(str(shape))):
        apply_gate(I4, np.ones(shape))


def test_basis_state_range():
    with pytest.raises(ValueError):
        basis_state(4)


@pytest.mark.parametrize(
    "index",
    [True, False, np.True_, 1.0, 2.5, np.float64(0.0), "1", None, -1, np.int64(4)],
    ids=["True", "False", "np.True_", "1.0", "2.5", "np.float64", "str", "None", "-1", "np.int64-4"],
)
def test_basis_index_must_be_an_integer_0_to_3(index):
    # A bool would index as a mask: state[True] = 1.0 sets every entry.
    with pytest.raises(ValueError, match=re.escape(repr(index))):
        basis_state(index)
    with pytest.raises(ValueError, match="basis index"):
        bell_from_b("+", 0.3, index)
    with pytest.raises(ValueError, match="basis index"):
        r_theta_action("-", 0.3, 0.2, index)


def test_basis_index_accepts_numpy_integers():
    for index in range(4):
        for as_numpy in (np.int64(index), np.uint8(index), np.intp(index)):
            assert basis_state(as_numpy).tobytes() == basis_state(index).tobytes()
            assert bell_from_b("+", 0.3, as_numpy).tobytes() == bell_from_b("+", 0.3, index).tobytes()
            got = r_theta_action("-", 0.3, 0.2, as_numpy)
            assert got.tobytes() == r_theta_action("-", 0.3, 0.2, index).tobytes()


def test_bell_from_b_examples():
    s2 = math.sqrt(2)
    got = bell_from_b("+", 0.0, 0)
    assert np.max(np.abs(got - np.array([1, 0, 0, -1]) / s2)) < 1e-15
    got = bell_from_b("-", 0.0, 1)
    assert np.max(np.abs(got - np.array([0, 1, 1, 0]) / s2)) < 1e-15
    got = bell_from_b("+", math.pi / 2, 3)
    assert np.max(np.abs(got - np.array([-1j, 0, 0, 1]) / s2)) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
@pytest.mark.parametrize("phi", [0.0, math.pi / 3, math.pi / 2, math.pi])
def test_bell_from_b_columns_and_concurrence(sign, phi):
    for index in range(4):
        got = bell_from_b(sign, phi, index)
        assert np.max(np.abs(got - _expected_action(sign, phi, 0.0, index))) < 1e-12
        assert abs(concurrence(got) - 1.0) < 1e-12


def test_r_theta_action_examples():
    assert np.max(np.abs(r_theta_action("+", 1.1, math.pi / 4, 2) - basis_state(2))) < 1e-15
    got = r_theta_action("-", 0.0, 0.0, 0)
    assert np.max(np.abs(got - np.array([1, 0, 0, -1]) / math.sqrt(2))) < 1e-15
    got = r_theta_action("+", 0.0, math.pi / 8, 0)
    expected = np.array([math.cos(math.pi / 8), 0, 0, -math.sin(math.pi / 8)])
    assert np.max(np.abs(got - expected)) < 1e-15


@pytest.mark.parametrize("sign", ["+", "-"])
def test_r_theta_action_closed_form(sign):
    for phi in (0.0, 1.0):
        for theta in np.linspace(0.0, math.pi / 2, 9):
            theta = float(theta)
            for index in range(4):
                got = r_theta_action(sign, phi, theta, index)
                assert np.max(np.abs(got - _expected_action(sign, phi, theta, index))) < 1e-12
                assert abs(concurrence(got) - abs(math.cos(2.0 * theta))) < 1e-12


def test_concurrence_examples():
    assert concurrence(basis_state(0)) == 0.0
    bell = np.array([1, 0, 0, 1], dtype=complex) / math.sqrt(2)
    assert abs(concurrence(bell) - 1.0) < 1e-15
    tilted = np.array([math.cos(math.pi / 8), 0, 0, -math.sin(math.pi / 8)], dtype=complex)
    assert abs(concurrence(tilted) - math.sin(math.pi / 4)) < 1e-15


def test_concurrence_local_unitary_invariance():
    rng = np.random.default_rng(17)
    for _ in range(6):
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        u, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        v, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        assert abs(concurrence(kron(u, v) @ psi) - concurrence(psi)) < 1e-12


def test_is_entangling_braid_gate():
    verdict = is_entangling(build_b_phi("-", 0.0))
    assert verdict.entangling
    assert abs(verdict.concurrence_max - 1.0) < 1e-12
    assert verdict.witness is not None
    assert concurrence(verdict.witness) > 1e-9


def test_is_entangling_negative_cases():
    for gate in (I4, SWAP):
        verdict = is_entangling(gate)
        assert not verdict.entangling
        assert verdict.witness is None
        assert verdict.concurrence_max < 1e-12


def test_is_entangling_identity_point_of_family():
    gate = build_R_x_normalized("-", 0.0, 1.0)
    assert np.max(np.abs(gate - I4)) < 1e-15
    assert not is_entangling(gate).entangling


def test_is_entangling_rejects_non_unitary():
    with pytest.raises(NonUnitaryGateError):
        is_entangling(1.5 * I4)


@pytest.mark.parametrize(
    "check, arg",
    [
        (unitarity_residual, np.eye(2, 4)),
        (unitarity_residual, np.stack([I4, I4])),
        (unitarity_residual, np.ones(4)),
        (unitarity_residuals, np.ones((1, 2, 4))),
        (unitarity_residuals, np.ones(4)),
        (lambda gate: apply_gate(gate, basis_state(0)), np.eye(2, 4)),
        (is_entangling, np.eye(2, 4)),
        (is_entangling, np.eye(8)),
        (concurrence, np.array([1, 0, 0, 0, 1.0])),
        (concurrence, np.ones((4, 1))),
    ],
    ids=[
        "unitarity_residual-2x4",
        "unitarity_residual-stack",
        "unitarity_residual-vector",
        "unitarity_residuals-1x2x4",
        "unitarity_residuals-vector",
        "apply_gate-2x4",
        "is_entangling-2x4",
        "is_entangling-8x8",
        "concurrence-5",
        "concurrence-4x1",
    ],
)
def test_misshapen_gates_and_states_are_refused(check, arg):
    # Each once gave a number, or numpy's broadcast or unpacking message.
    with pytest.raises(DimensionMismatchError):
        check(arg)


def test_is_entangling_theta_family_boundary():
    for theta in (0.0, 0.3, math.pi / 4, 1.2):
        verdict = is_entangling(build_R_theta("+", 0.4, theta))
        expected = abs(math.cos(2.0 * theta))
        assert abs(verdict.concurrence_max - expected) < 1e-9
        assert verdict.entangling == (theta != math.pi / 4)


@pytest.mark.parametrize("sign", ["+", "-"])
def test_is_entangling_bit_identical_to_scan_oracle(sign):
    thetas = [float(t) for t in np.linspace(0.0, math.pi / 2, 13)] + [math.pi / 4]
    for phi in np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False):
        for theta in thetas:
            _assert_matches_oracle(build_R_theta(sign, float(phi), theta))


@given(seed=st.integers(0, 2**32 - 1))
def test_is_entangling_bit_identical_on_random_unitaries(seed):
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    _assert_matches_oracle(q)


def test_is_entangling_oracle_semantics_at_the_edges():
    # Non-entangling gates and a maximally entangling one: verdict, maximum
    # and witness all follow the scan.
    for gate in (I4, SWAP, cnot(), build_R_theta("-", 0.9, math.pi / 4)):
        _assert_matches_oracle(gate)


def test_is_entangling_all_zero_scan_has_no_witness(monkeypatch):
    # Basis probes under the identity give concurrence exactly 0.0, which
    # is not entangling at the fixed threshold, so there is no witness.
    basis = np.array([basis_state(i) for i in range(4)])
    monkeypatch.setattr(entangle, "_probe_stack", lambda: basis)
    verdict = is_entangling(I4)
    assert not verdict.entangling
    assert verdict.witness is None
    assert verdict.concurrence_max == 0.0


def test_is_entangling_witness_is_a_fresh_array():
    gate = build_b_phi("-", 0.0)
    first = is_entangling(gate).witness
    assert first.flags.owndata and first.flags.writeable
    first[:] = 0.0
    assert np.array_equal(is_entangling(gate).witness, _scan_oracle(gate)[1])


def test_probe_stack_is_read_only_copy_of_grid():
    probes = _probe_stack()
    assert probes.shape == (100, 4)
    assert not probes.flags.writeable
    with pytest.raises(ValueError):
        probes[0, 0] = 1.0
    assert _probe_stack() is probes


def test_probe_stack_bytes_are_pinned():
    # The one fixed probe set, byte for byte: the 36 Pauli-eigenstate pairs
    # and the 64 states drawn from DEFAULT_SEED.
    digest = hashlib.sha256(_probe_stack().tobytes()).hexdigest()
    assert digest == "6537b095972de352d46bb7f2b297ccad78bd636ac97d7534b162f0ec4be57201"


def test_import_does_not_build_probe_stack():
    code = (
        "import ybgates, ybgates.cli, ybgates.entangle as e; "
        "print(e._probe_stack.cache_info().currsize)"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True
    ).stdout
    assert out.strip() == "0"


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_gate_is_not_unitary(bad):
    gate = np.full((4, 4), bad, dtype=complex)
    with pytest.raises(NonUnitaryGateError):
        is_entangling(gate)
    with pytest.raises(NonUnitaryGateError):
        apply_gate(gate, basis_state(0))
    spoiled = I4.copy()
    spoiled[2, 1] = bad
    with pytest.raises(NonUnitaryGateError):
        is_entangling(spoiled)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_bell_from_b_rejects_nan_angle():
    with pytest.raises(NonUnitaryGateError):
        bell_from_b("+", math.nan, 0)
    with pytest.raises(NonUnitaryGateError):
        r_theta_action("-", 0.3, math.nan, 1)


@given(
    sign=st.sampled_from(["+", "-"]),
    phis=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
    thetas=st.lists(st.floats(-10.0, 10.0), min_size=1, max_size=5),
)
def test_r_theta_concurrences_bit_identical_to_per_point(sign, phis, thetas):
    phi, theta = phis[0], thetas[0]
    by_theta = [concurrence(r_theta_action(sign, phi, t, 0)) for t in thetas]
    assert np.array_equal(r_theta_concurrences(sign, phi, thetas), by_theta)
    by_phi = [concurrence(r_theta_action(sign, p, theta, 0)) for p in phis]
    assert np.array_equal(r_theta_concurrences(sign, phis, theta), by_phi)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_r_theta_concurrences_refuses_the_first_nonunitary_gate():
    with pytest.raises(NonUnitaryGateError, match=r"^gate is not unitary \(residual nan\)$"):
        r_theta_concurrences("+", [0.1, math.nan], 0.3)
