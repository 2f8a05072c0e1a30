"""Acceptance suite: every shipped claim at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` or ``-rA`` to
see them inline) and then asserts, so the suite doubles as a report.
"""

import json
import math
import subprocess
import sys

import numpy as np

from expm_series import expm
from qybe_point import qybe_point
from ybgates.cli import MatrixDocument, main as cli_main
from ybgates.eightvertex import (
    build_b,
    build_b_phi,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    rho,
    sign_value,
)
from ybgates.entangle import bell_from_b, concurrence, is_entangling, r_theta_action
from ybgates.gates import (
    cnot,
    cnot_via_evolution,
    cnot_via_theorem1,
    conjugate_to_zx,
    conjugation_identities,
    global_phase_between,
    transform_R_to_zx,
)
from ybgates.hamiltonian import (
    R_from_H,
    axis_angle_pair,
    evolution_U,
    generator_fd,
    hamiltonian_const,
    interaction_operator,
    schrodinger_residuals,
    sigma_axis,
)
from ybgates.linalg import dagger, kron, residual, unitarity_residuals
from ybgates.yangbaxter import braid_residuals

I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)

SIGNS = ("+", "-")
PHI_8 = [2.0 * math.pi * k / 8 for k in range(8)]
PHI_32 = [2.0 * math.pi * k / 32 for k in range(32)]
THETA_9 = [2.0 * math.pi * k / 8 for k in range(9)]


def _criterion(number, label, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"acceptance {number:02d} {label}: {status}{suffix}")
    assert ok, f"criterion {number} ({label}) failed{suffix}"


def test_criterion_01_braid_relation():
    worst = 0.0
    for sign in SIGNS:
        for phi in PHI_32:
            worst = max(worst, float(braid_residuals(build_b_phi(sign, phi))))
        for phi in PHI_8:
            worst = max(worst, float(braid_residuals(build_b(sign, np.exp(-1j * phi)))))
    _criterion(1, "braid relation", worst < 1e-12, f"max={worst:.3e}")


def test_criterion_02_qybe_grid():
    grid = [k / 8.0 for k in range(1, 17)]  # (0, 2] in 16 steps
    worst = 0.0
    for sign in SIGNS:
        for phi in PHI_8:
            q = np.exp(-1j * phi)
            family = lambda t, _s=sign, _q=q: build_R_x(_s, _q, t)
            for x in grid:
                for y in grid:
                    worst = max(worst, qybe_point(family, x, y))
    _criterion(2, "spectral relation over grid", worst < 1e-10, f"max={worst:.3e}")


def test_criterion_02b_qybe_argument_convention():
    # The convention pinned in qybe_residuals (first right-hand factor at y)
    # holds to machine precision; swapping it for x fails by ~1.
    I2 = np.eye(2, dtype=complex)
    x, y = 0.3, 0.7
    kept, swapped = 0.0, np.inf
    for sign in SIGNS:
        family = lambda t, _s=sign: build_R_x(_s, 1.0, t)
        kept = max(kept, qybe_point(family, x, y))
        lhs = (
            np.kron(family(x), I2)
            @ np.kron(I2, family(x * y))
            @ np.kron(family(y), I2)
        )
        rhs = (
            np.kron(I2, family(x))
            @ np.kron(family(x * y), I2)
            @ np.kron(I2, family(x))
        )
        swapped = min(swapped, float(np.max(np.abs(lhs - rhs))))
    ok = kept < 1e-10 and swapped > 1e-3
    _criterion(2, "argument convention (y, not x)", ok, f"kept={kept:.2e} swapped={swapped:.2e}")


def test_criterion_03_asymptotic_limit_bitwise():
    ok = True
    for sign in SIGNS:
        for q in (1.0, np.exp(-0.7j), np.exp(-2.4j), 2.0):
            limit = build_R_x(sign, q, 0.0)
            base = build_b(sign, q)
            ok = ok and np.array_equal(limit, base) and limit.tobytes() == base.tobytes()
    _criterion(3, "x=0 limit is the braid matrix, bitwise", ok)


def test_criterion_04_unitarity_regime():
    worst = 0.0
    for sign in SIGNS:
        for phi in PHI_8:
            for x in np.linspace(-3.0, 3.0, 61):
                worst = max(
                    worst, float(unitarity_residuals(build_R_x_normalized(sign, phi, float(x))))
                )
    off_circle = float(unitarity_residuals(build_R_x("+", 2.0, 0.5) / math.sqrt(rho(0.5))))
    # R(1) = 2I for every q, so x = 1 is unitary off the circle too.
    at_one = float(unitarity_residuals(build_R_x("+", 2.0, 1.0) / math.sqrt(rho(1.0))))
    ok = worst < 1e-12 and off_circle > 1e-2 and at_one < 1e-12
    detail = f"max={worst:.3e} q=2 defect={off_circle:.3f} at x=1 {at_one:.3e}"
    _criterion(4, "unitary at real x iff |q| = 1 or x = 1", ok, detail)


def test_criterion_05_parameterization_consistency():
    worst = 0.0
    for sign in SIGNS:
        for phi in PHI_8:
            for x in (0.0, 0.25, 1.0, 4.0):
                worst = max(
                    worst,
                    residual(
                        build_R_theta(sign, phi, math.atan(x)),
                        build_R_x_normalized(sign, phi, x),
                    ),
                )
            worst = max(worst, residual(build_R_theta(sign, phi, math.pi / 4), I4))
    _criterion(5, "angle and spectral forms agree", worst < 1e-12, f"max={worst:.3e}")


def test_criterion_06_hamiltonian():
    worst_display, worst_props = 0.0, 0.0
    for sign in SIGNS:
        s = sign_value(sign)
        for phi in PHI_8:
            h = hamiltonian_const(sign, phi)
            display = 0.5j * np.array(
                [
                    [0, 0, 0, -np.exp(-1j * phi)],
                    [0, 0, -s, 0],
                    [0, s, 0, 0],
                    [np.exp(1j * phi), 0, 0, 0],
                ],
                dtype=complex,
            )
            worst_display = max(worst_display, residual(h, display))
            worst_props = max(worst_props, residual(h, dagger(h)))
            worst_props = max(worst_props, residual(h @ h, I4 / 4.0))
    fd = 0.0
    for sign in SIGNS:
        family = lambda t, _s=sign: build_R_x_normalized(_s, 0.0, t)
        fd = max(fd, residual(generator_fd(family, 1.0, 1e-5), hamiltonian_const(sign, 0.0)))
    theta_drift = 0.0
    for sign in SIGNS:
        family = lambda t, _s=sign: build_R_theta(_s, 0.5, t)
        theta_drift = max(
            theta_drift, residual(generator_fd(family, 0.2, 1e-5), generator_fd(family, 0.9, 1e-5))
        )
    ok = worst_display < 1e-15 and worst_props < 1e-12 and fd < 1e-6 and theta_drift < 1e-6
    _criterion(
        6,
        "Hamiltonian display, square, generator",
        ok,
        f"display={worst_display:.2e} fd={fd:.2e} drift={theta_drift:.2e}",
    )


def test_criterion_07_schrodinger_equation():
    rng = np.random.default_rng(0x5EED)
    states = []
    for _ in range(8):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        states.append(v / np.linalg.norm(v))
    worst = 0.0
    for sign in SIGNS:
        for phi in (0.0, math.pi / 3):
            for x in (0.4, 1.0, 2.0):
                for psi0 in states:
                    worst = max(worst, float(schrodinger_residuals(sign, phi, [psi0], x, 1e-5)[0]))
    coarse = float(schrodinger_residuals("+", 0.3, [states[0]], 0.7, 1e-2)[0])
    fine = float(schrodinger_residuals("+", 0.3, [states[0]], 0.7, 1e-3)[0])
    ratio = coarse / fine
    ok = worst < 1e-6 and ratio >= 50.0
    _criterion(7, "Schrodinger defect and h^2 order", ok, f"max={worst:.2e} ratio={ratio:.1f}")


def test_criterion_08_pauli_axis_form():
    worst = 0.0
    for phi in PHI_8:
        alpha1, alpha2 = axis_angle_pair(phi)
        worst = max(
            worst,
            residual(
                hamiltonian_const("+", phi),
                0.5 * kron(sigma_axis(alpha1), sigma_axis(alpha2)),
            ),
            residual(
                hamiltonian_const("-", phi),
                0.5 * kron(sigma_axis(alpha2), sigma_axis(alpha1)),
            ),
        )
    evo = 0.0
    for sign in SIGNS:
        for phi in (0.0, 1.3):
            op = interaction_operator(sign, phi)
            for theta in THETA_9:
                evo = max(
                    evo, residual(evolution_U(sign, phi, theta), expm(-0.5j * theta * op))
                )
    ok = worst < 1e-12 and evo < 1e-12
    _criterion(8, "axis form and evolution operator", ok, f"axis={worst:.2e} evo={evo:.2e}")


def test_criterion_09_exponential_identity():
    worst = 0.0
    for sign in SIGNS:
        for phi in PHI_8:
            for theta in THETA_9:
                worst = max(
                    worst,
                    residual(R_from_H(sign, phi, theta), build_R_theta(sign, phi, theta)),
                )
    fixed = residual(build_b_phi("-", 0.0), expm(0.25j * math.pi * kron(SX, SY)))
    ok = worst < 1e-12 and fixed < 1e-12
    _criterion(9, "exponential form of the gate", ok, f"grid={worst:.2e} fixed={fixed:.2e}")


def test_criterion_10_bell_states():
    worst_state, worst_conc = 0.0, 0.0
    for sign in SIGNS:
        s = sign_value(sign)
        for phi in (0.0, math.pi / 3, math.pi / 2, math.pi):
            s2 = math.sqrt(2.0)
            columns = (
                np.array([1, 0, 0, -np.exp(1j * phi)], dtype=complex) / s2,
                np.array([0, 1, -s, 0], dtype=complex) / s2,
                np.array([0, s, 1, 0], dtype=complex) / s2,
                np.array([np.exp(-1j * phi), 0, 0, 1], dtype=complex) / s2,
            )
            for index in range(4):
                got = bell_from_b(sign, phi, index)
                worst_state = max(worst_state, float(np.max(np.abs(got - columns[index]))))
                worst_conc = max(worst_conc, abs(concurrence(got) - 1.0))
    ok = worst_state < 1e-12 and worst_conc < 1e-12
    _criterion(10, "Bell states from the braid gate", ok, f"state={worst_state:.2e}")


def test_criterion_11_angle_family_action():
    worst_state, worst_conc = 0.0, 0.0
    for sign in SIGNS:
        s = sign_value(sign)
        for phi in (0.0, 1.0):
            for theta in [k * math.pi / 128 for k in range(65)]:
                u = math.pi / 4 - theta
                c, sn = math.cos(u), math.sin(u)
                columns = (
                    np.array([c, 0, 0, -np.exp(1j * phi) * sn], dtype=complex),
                    np.array([0, c, -s * sn, 0], dtype=complex),
                    np.array([0, s * sn, c, 0], dtype=complex),
                    np.array([np.exp(-1j * phi) * sn, 0, 0, c], dtype=complex),
                )
                for index in range(4):
                    got = r_theta_action(sign, phi, theta, index)
                    worst_state = max(
                        worst_state, float(np.max(np.abs(got - columns[index])))
                    )
                    worst_conc = max(
                        worst_conc, abs(concurrence(got) - abs(math.cos(2 * theta)))
                    )
    ok = worst_state < 1e-12 and worst_conc < 1e-12
    _criterion(11, "basis action of the angle family", ok, f"state={worst_state:.2e}")


def test_criterion_12_conjugation_route():
    got = cnot_via_theorem1()
    value = residual(got, cnot())
    phase = global_phase_between(got, cnot())
    # Equality is exact; no global-phase discrepancy is left to record.
    ok = value < 1e-12 and phase is not None and abs(phase - 1.0) < 1e-12
    _criterion(12, "conjugation route lands on CNOT exactly", ok, f"residual={value:.2e}")


def test_criterion_13_rotation_route():
    ident = 0.0
    for phi in [2.0 * math.pi * k / 8 for k in range(8)]:
        first, second = conjugation_identities(phi)
        ident = max(ident, first, second)
    conj = 0.0
    for phi in (0.0, 0.7, 1.2):
        for theta in (0.0, 0.9, math.pi / 2):
            conj = max(
                conj,
                residual(conjugate_to_zx(phi, theta), expm(-0.5j * theta * kron(SZ, SX))),
            )
    synth = max(
        residual(cnot_via_evolution(phi), cnot()) for phi in (0.0, math.pi / 3, 1.2)
    )
    rejected = residual(
        kron(np.diag([1.0 + 0.0j, 1.0j]), expm(0.25j * math.pi * SX))
        @ conjugate_to_zx(0.7, math.pi / 2),
        cnot(),
    )
    rotated = residual(transform_R_to_zx(), expm(0.25j * math.pi * kron(SZ, SX)))
    ok = (
        ident < 1e-12
        and conj < 1e-12
        and synth < 1e-12
        and rejected > 0.5
        and rotated < 1e-12
    )
    _criterion(
        13,
        "rotation route to CNOT",
        ok,
        f"identities={ident:.2e} synth={synth:.2e} rejected={rejected:.2f}",
    )


def test_criterion_14_universality_boundary():
    ok = True
    worst_gap = 0.0
    for theta in [k * math.pi / 128 for k in range(65)]:
        verdict = is_entangling(build_R_theta("-", 0.0, theta))
        expected = abs(math.cos(2.0 * theta))
        worst_gap = max(worst_gap, abs(verdict.concurrence_max - expected))
        ok = ok and verdict.entangling == (theta != math.pi / 4)
    swap = np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )
    ok = ok and not is_entangling(I4).entangling
    ok = ok and not is_entangling(swap).entangling
    ok = ok and worst_gap < 1e-9
    _criterion(14, "entangling everywhere except theta=pi/4", ok, f"gap={worst_gap:.2e}")


def test_criterion_15_cli_contract(tmp_path, capsys):
    # Exit codes 0/1/2.
    ok = cli_main(["verify", "braid", "--sign", "-", "--phi-grid", "8"]) == 0
    bad = build_b_phi("-", 0.0).copy()
    bad[1, 2] += 0.05
    bad_path = tmp_path / "perturbed.json"
    bad_path.write_text(MatrixDocument.from_matrix(bad).to_json())
    ok = ok and cli_main(["verify", "braid", "--matrix-file", str(bad_path)]) == 1
    ok = ok and cli_main(
        ["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1", "--steps", "1"]
    ) == 2
    capsys.readouterr()

    # Byte-identical repeated runs.
    command = [sys.executable, "-m", "ybgates", "verify", "exponential", "--phi-grid", "4"]
    first = subprocess.run(command, capture_output=True)
    second = subprocess.run(command, capture_output=True)
    ok = ok and first.returncode == 0 and first.stdout == second.stdout

    # Document round trip is bit-exact.
    matrix = build_R_theta("+", 0.9, 0.4)
    doc = MatrixDocument.from_matrix(matrix, {"family": "Rtheta"})
    again = MatrixDocument.from_json(doc.to_json())
    ok = ok and again.to_matrix().tobytes() == matrix.tobytes()
    ok = ok and json.loads(doc.to_json())["dim"] == 4
    _criterion(15, "CLI determinism, exit codes, round trip", ok)
