"""Seeded inputs, ops and output checks for the three benchmark workloads.

An op is the unit the closed loop times and checks: a tuple of commands
(``ybg`` argv run in process) or of entangle_scan points. Ops are sized
to about half a second on a 2-core machine, so a run holds a few dozen of
them. That keeps the percentile with ten samples beyond it (op_ms_tail)
clear of the multi-second slow phases a shared machine goes through.

- ``qybe_grid``: one command of 4096 relation points, either
  ``verify qybe`` at its default grid or a 4096-step ``sweep qybe`` row,
  in the fixed order verify, sweep x, verify, sweep phi.
- ``relation_suite``: six passes over six short commands, the four
  ``verify`` relations at their defaults plus one ``sweep unitarity`` and
  one ``sweep braid`` row.
- ``entangle_scan``: 128 (sign, phi, theta) points of library calls and
  no CLI; every 64th point sits on the non-entangling boundary pi/4.

Correctness is judged from outside: the exit code, the point count the
grid implies, finiteness, the benchmark's own copy of each relation's
tolerance and closed forms. The CLI's ``pass`` field is never read.
"""

from __future__ import annotations

import io
import json
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Pass tolerances of the shipped relations, held here so a change to the
# program's defaults cannot loosen the benchmark's check.
TOL = {
    "braid": 1e-12,
    "qybe": 1e-10,
    "unitarity": 1e-12,
    "schrodinger": 1e-6,
    "exponential": 1e-12,
}
# Points each `verify` relation runs at its default grid.
VERIFY_POINTS = {
    "braid": 2 * 32,
    "qybe": 2 * 8 * 16 * 16,
    "unitarity": 2 * 8 * 61,
    "schrodinger": 2 * 2 * 3 * 8,
    "exponential": 2 * 8 * 9 * 2 + 1,
}
QYBE_SWEEP_STEPS = VERIFY_POINTS["qybe"]
SUITE_SWEEP_STEPS = 61
SUITE_PASSES_PER_OP = 6
ENTANGLE_POINTS_PER_OP = 128
BOUNDARY_EVERY = 64
# Ops generated per run; a 36 s run on a 2-core machine uses fewer, so no
# op repeats within a run.
INPUT_OPS = {"qybe_grid": 64, "relation_suite": 128, "entangle_scan": 128}
# Largest |x| or |y| drawn; the README documents the spectral axis on [-3, 3].
X_LIMIT = 3.0
ENTANGLE_THRESHOLD = 1e-9
EXACT_TOL = 1e-12
TWO_PI = 2.0 * math.pi


class SourceMissingError(RuntimeError):
    """The checkout holds no ybgates source to benchmark."""


def import_ybgates():
    """Import ybgates from this checkout's ``src``, never from elsewhere."""
    init = SRC / "ybgates" / "__init__.py"
    if not init.is_file():
        raise SourceMissingError(f"no ybgates source at {init}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import ybgates
    import ybgates.cli

    if Path(ybgates.__file__).resolve() != init.resolve():
        raise SourceMissingError(f"imported ybgates from {ybgates.__file__}, not {init}")
    return ybgates


class Command(NamedTuple):
    """One ``ybg`` argv and the number of points its output must hold."""

    argv: tuple[str, ...]
    points: int


class EntanglePoint(NamedTuple):
    sign: str
    phi: float
    theta: float
    basis: int
    x: float


# Top-level library calls one entangle point makes (see run_entangle).
ENTANGLE_CALLS = 10


def _num(value: float) -> str:
    return repr(float(value))


def _sign(rng: random.Random) -> str:
    return rng.choice("+-")


def _range(rng: random.Random, lo: float, mid: float, hi: float) -> tuple[float, float]:
    return rng.uniform(lo, mid), rng.uniform(mid, hi)


def _sweep(quantity: str, param: str, start: float, stop: float, steps: int, **opts) -> Command:
    argv = ["sweep", quantity, "--param", param, "--from", _num(start),
            "--to", _num(stop), "--steps", str(steps)]
    for key, value in opts.items():
        argv += [f"--{key}", value if isinstance(value, str) else _num(value)]
    return Command(tuple(argv), steps)


def _verify(relation: str) -> Command:
    return Command(("verify", relation), VERIFY_POINTS[relation])


def _qybe_command(rng: random.Random, i: int) -> Command:
    if i % 2 == 0:
        return _verify("qybe")
    if i % 4 == 1:
        start, stop = _range(rng, -X_LIMIT, 0.0, X_LIMIT)
        return _sweep("qybe", "x", start, stop, QYBE_SWEEP_STEPS, sign=_sign(rng),
                      phi=rng.uniform(0.0, TWO_PI), y=rng.uniform(-X_LIMIT, X_LIMIT))
    start, stop = _range(rng, 0.0, math.pi, TWO_PI)
    return _sweep("qybe", "phi", start, stop, QYBE_SWEEP_STEPS, sign=_sign(rng),
                  x=rng.uniform(-X_LIMIT, X_LIMIT), y=rng.uniform(-X_LIMIT, X_LIMIT))


def _suite_pass(rng: random.Random) -> tuple[Command, ...]:
    if rng.random() < 0.5:
        start, stop = _range(rng, -X_LIMIT, 0.0, X_LIMIT)
        unitarity = _sweep("unitarity", "x", start, stop, SUITE_SWEEP_STEPS,
                           sign=_sign(rng), phi=rng.uniform(0.0, TWO_PI))
    else:
        start, stop = _range(rng, 0.0, math.pi, TWO_PI)
        unitarity = _sweep("unitarity", "phi", start, stop, SUITE_SWEEP_STEPS,
                           sign=_sign(rng), x=rng.uniform(-X_LIMIT, X_LIMIT))
    start, stop = _range(rng, 0.0, math.pi, TWO_PI)
    braid = _sweep("braid", "phi", start, stop, SUITE_SWEEP_STEPS, sign=_sign(rng))
    verifies = tuple(_verify(r) for r in ("braid", "unitarity", "schrodinger", "exponential"))
    return verifies + (unitarity, braid)


def _entangle_point(rng: random.Random, i: int) -> EntanglePoint:
    sign, phi = _sign(rng), rng.uniform(0.0, TWO_PI)
    if i % BOUNDARY_EVERY == 0:
        theta = math.pi / 4.0
    else:
        theta = rng.uniform(0.0, math.pi / 2.0)
        # Keep drawn points clear of the verdict threshold, where the
        # closed form and the scan could round to opposite verdicts.
        while abs(abs(math.cos(2.0 * theta)) - ENTANGLE_THRESHOLD) < 1e-6:
            theta = rng.uniform(0.0, math.pi / 2.0)
    return EntanglePoint(sign, phi, theta, rng.randrange(4), rng.uniform(-X_LIMIT, X_LIMIT))


def make_inputs(workload: str, seed: int) -> list[tuple]:
    """The run's ops, drawn from ``seed`` alone."""
    rng = random.Random(seed)
    count = INPUT_OPS[workload]
    if workload == "qybe_grid":
        return [(_qybe_command(rng, i),) for i in range(count)]
    if workload == "relation_suite":
        return [sum((_suite_pass(rng) for _ in range(SUITE_PASSES_PER_OP)), ())
                for _ in range(count)]
    if workload == "entangle_scan":
        n = ENTANGLE_POINTS_PER_OP
        return [tuple(_entangle_point(rng, i * n + k) for k in range(n)) for i in range(count)]
    raise ValueError(f"unknown workload {workload!r}")


def cli_command(workload: str, seed: int) -> Command:
    """The command whose fresh-subprocess wall time is ``cli_ms_p50``."""
    if workload == "qybe_grid":
        return _verify("qybe")
    if workload == "relation_suite":
        return _verify("exponential")
    rng = random.Random(seed)
    return _sweep("concurrence", "theta", 0.0, math.pi / 2.0, 65,
                  sign=_sign(rng), phi=rng.uniform(0.0, TWO_PI))


def points_per_op(op: tuple) -> int:
    """Relation points of an op's commands, or library calls of its points."""
    return sum(u.points if isinstance(u, Command) else ENTANGLE_CALLS for u in op)


# --- running ----------------------------------------------------------


def run_cli(yb, command: Command) -> tuple[int, str]:
    """Run one command in process; ``yb.cli.main`` is looked up per call."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = yb.cli.main(list(command.argv))
    return code, out.getvalue()


def run_entangle(yb, p: EntanglePoint):
    """ENTANGLE_CALLS library calls, each looked up on the package."""
    gate = yb.build_R_theta(p.sign, p.phi, p.theta)
    verdict = yb.is_entangling(gate)
    bell = yb.bell_from_b(p.sign, p.phi, p.basis)
    h_const = yb.hamiltonian_const(p.sign, p.phi)
    d_const = yb.pauli_decompose(h_const)
    h_x = yb.hamiltonian_x(p.sign, p.phi, p.x)
    d_x = yb.pauli_decompose(h_x)
    routes = (yb.cnot_via_theorem1(), yb.cnot_via_evolution(p.phi))
    target = yb.cnot()
    return verdict, bell, ((h_const, d_const), (h_x, d_x)), routes, target


def run_op(yb, op: tuple) -> list:
    return [run_cli(yb, u) if isinstance(u, Command) else run_entangle(yb, u) for u in op]


# --- checking ---------------------------------------------------------


def _finite(values) -> bool:
    return all(isinstance(v, (int, float)) and math.isfinite(v) for v in values)


def check_cli(command: Command, code: int, stdout: str) -> bool:
    """True when the command's output earns a pass by the rules above."""
    if code != 0:
        return False
    try:
        report = json.loads(stdout)
    except json.JSONDecodeError:
        return False
    if not isinstance(report, dict):
        return False
    verb, subject = command.argv[0], command.argv[1]
    if verb == "verify":
        value = report.get("max_residual")
        return (report.get("points") == command.points and _finite([value])
                and value < TOL[subject])
    values, results = report.get("values"), report.get("results")
    if not isinstance(values, list) or not isinstance(results, list):
        return False
    if len(values) != command.points or len(results) != command.points:
        return False
    if not _finite(values) or not _finite(results):
        return False
    start = float(command.argv[command.argv.index("--from") + 1])
    stop = float(command.argv[command.argv.index("--to") + 1])
    for k, v in enumerate(values):
        expected = start + (stop - start) * k / (command.points - 1)
        if abs(v - expected) > EXACT_TOL * max(1.0, abs(expected)):
            return False
    if subject == "concurrence":
        return all(abs(r - abs(math.cos(2.0 * v))) < EXACT_TOL for v, r in zip(values, results))
    return all(r < TOL[subject] for r in results)


_PAULIS = (np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]),
           np.diag([1.0, -1.0]))
# _PAULI_BASIS[a, b] is sigma_a (x) sigma_b, built with numpy, not ybgates.
_PAULI_BASIS = np.array([[np.kron(a, b) for b in _PAULIS] for a in _PAULIS], dtype=complex)
_CNOT = np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)


def check_entangle(p: EntanglePoint, outcome) -> bool:
    """Compare one entangle_scan point against closed forms, using numpy only."""
    verdict, bell, decompositions, routes, target = outcome
    closed = abs(math.cos(2.0 * p.theta))
    best = verdict.concurrence_max
    if not _finite([best]) or best < closed - EXACT_TOL:
        return False
    if verdict.entangling != (closed > ENTANGLE_THRESHOLD):
        return False
    bell = np.asarray(bell)
    if not np.all(np.isfinite(bell)) or abs(np.linalg.norm(bell) - 1.0) >= EXACT_TOL:
        return False
    if abs(2.0 * abs(bell[0] * bell[3] - bell[1] * bell[2]) - 1.0) >= EXACT_TOL:
        return False
    for h, d in decompositions:
        c = np.asarray(d.coefficients)
        if not np.all(np.isfinite(c)) or np.max(np.abs(c.imag)) >= EXACT_TOL:
            return False
        rebuilt = np.einsum("ab,abij->ij", c, _PAULI_BASIS)
        if np.max(np.abs(rebuilt - np.asarray(h))) >= EXACT_TOL:
            return False
    if not np.array_equal(np.asarray(target), _CNOT):
        return False
    return all(np.max(np.abs(np.asarray(r) - _CNOT)) < EXACT_TOL for r in routes)


def check_op(op: tuple, outcomes: list) -> bool:
    return all(
        check_cli(u, *o) if isinstance(u, Command) else check_entangle(u, o)
        for u, o in zip(op, outcomes)
    )
