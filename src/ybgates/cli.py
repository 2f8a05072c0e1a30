"""Command-line surface: verifiers, matrix constructors, CNOT synthesis,
and parameter sweeps.

Subcommands
    verify      run a relation check over its parameter grid, exit 0/1
    matrix      print one gate or Hamiltonian as a JSON matrix document
    synthesize  build CNOT along one of the two routes and report residuals
    sweep       tabulate a quantity over a parameter range (JSON or CSV)

Exit codes: 0 pass, 1 verification failure, 2 usage or IO error. Output is
deterministic: fixed seeds (override with the YBG_SEED environment
variable) and shortest round-trip float formatting, so repeated runs are
byte-identical.

Matrix files are JSON objects {"dim": n, "data": [[re, im], ...],
"meta": {...}} with row-major data; parsing a serialized document
reproduces the matrix bit-exactly.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from .eightvertex import (
    build_b,
    build_b_phi,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
    build_R_x_stack,
    theta_from_x,
)
from .entangle import concurrence, r_theta_action
from .gates import cnot, cnot_via_evolution, cnot_via_theorem1, global_phase_between
from .hamiltonian import (
    evolution_U,
    hamiltonian_const,
    hamiltonian_x,
    interaction_operator,
    R_from_H,
    schrodinger_residual,
)
from .linalg import expm, kron, residual, unitarity_residual
from .paulis import DEFAULT_SEED, SIGMA_X, SIGMA_Y
from .yangbaxter import braid_residual, qybe_residuals

SEED_ENV_VAR = "YBG_SEED"

_DEFAULT_TOL = {
    "braid": 1e-12,
    "qybe": 1e-10,
    "unitarity": 1e-12,
    "schrodinger": 1e-6,
    "exponential": 1e-12,
    "synthesize": 1e-12,
}
_SWEEP_TOL = {"unitarity": 1e-12, "braid": 1e-12, "qybe": 1e-10}

# QYBE points are lifted to 8x8 and multiplied this many at a time: large
# enough that numpy's per-call cost is spread thin, small enough that the
# lifted stacks stay a few hundred kilobytes whatever the grid size.
_QYBE_BLOCK = 64


class CliError(Exception):
    """Usage or IO problem; reported on stderr with exit code 2."""


@dataclass
class MatrixDocument:
    """Serializable complex matrix with row-major [re, im] entry pairs."""

    dim: int
    data: list[list[float]]
    meta: dict[str, str] = field(default_factory=dict)

    @classmethod
    def from_matrix(cls, m: np.ndarray, meta: dict[str, str] | None = None) -> "MatrixDocument":
        m = np.asarray(m, dtype=complex)
        data = [[float(z.real), float(z.imag)] for z in m.ravel()]
        return cls(dim=int(m.shape[0]), data=data, meta=dict(meta or {}))

    def to_matrix(self) -> np.ndarray:
        flat = np.array([complex(re, im) for re, im in self.data])
        return flat.reshape(self.dim, self.dim)

    def to_json(self) -> str:
        payload = {"dim": self.dim, "data": self.data, "meta": self.meta}
        return json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "MatrixDocument":
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid matrix document: {exc}") from exc
        return cls.from_dict(payload)

    @classmethod
    def from_dict(cls, payload: object) -> "MatrixDocument":
        if not isinstance(payload, dict):
            raise CliError("matrix document must be a JSON object")
        try:
            dim = int(payload["dim"])
            data = payload["data"]
        except (KeyError, TypeError, ValueError) as exc:
            raise CliError(f"matrix document missing dim/data: {exc}") from exc
        if dim <= 0:
            raise CliError(f"matrix dim must be positive, got {dim}")
        if not isinstance(data, list) or len(data) != dim * dim:
            raise CliError(f"matrix data must hold {dim * dim} [re, im] pairs")
        pairs = []
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 2:
                raise CliError("matrix entries must be [re, im] pairs")
            try:
                pairs.append([float(entry[0]), float(entry[1])])
            except (TypeError, ValueError) as exc:
                raise CliError("matrix entries must be numeric [re, im] pairs") from exc
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise CliError("matrix meta must be an object")
        return cls(dim=dim, data=pairs, meta={str(k): str(v) for k, v in meta.items()})

    @classmethod
    def load(cls, path: str) -> "MatrixDocument":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                text = handle.read()
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc
        return cls.from_json(text)


def _seed() -> int:
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        return int(raw, 0)
    except ValueError as exc:
        raise CliError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from exc


def _parse_q(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise CliError(f"--q expects 're' or 're,im', got {text!r}")


def _signs(args: argparse.Namespace) -> list[str]:
    return [args.sign] if args.sign else ["+", "-"]


def _phi_grid(n: int) -> list[float]:
    return [2.0 * math.pi * k / n for k in range(n)]


def _qybe_blocks(count: int, stacks) -> np.ndarray:
    """QYBE residuals of ``count`` points, _QYBE_BLOCK points at a time.

    ``stacks(block)`` returns the family at x, y and x*y for the points in
    the slice ``block``, as one (3, B, 4, 4) array.
    """
    out = np.empty(count)
    for start in range(0, count, _QYBE_BLOCK):
        block = slice(start, start + _QYBE_BLOCK)
        out[block] = qybe_residuals(*stacks(block))
    return out


def _json_float(value: float) -> float | None:
    return value if math.isfinite(value) else None


def _refuse_nonfinite(matrix: np.ndarray, what: str) -> bool:
    """Report a matrix with NaN or infinite entries on stderr; True if so."""
    if np.all(np.isfinite(matrix)):
        return False
    print(f"error: {what} has non-finite entries", file=sys.stderr)
    return True


# --- verify -----------------------------------------------------------

def _verify_braid(args: argparse.Namespace) -> tuple[list[tuple[str, float]], int]:
    if args.matrix_file:
        doc = MatrixDocument.load(args.matrix_file)
        value = braid_residual(doc.to_matrix())
        return [(f"file={args.matrix_file}", value)], 1
    entries = []
    for sign in _signs(args):
        for phi in _phi_grid(args.phi_grid):
            entries.append(
                (f"sign={sign} phi={phi!r}", braid_residual(build_b_phi(sign, phi)))
            )
    return entries, len(entries)


def _verify_qybe(args: argparse.Namespace) -> tuple[list[tuple[str, float]], int]:
    # Points run x-major over an n x n grid. Each (sign, phi) builds one
    # stack holding the family at the n grid values and then at the n*n
    # products, so the whole grid shares a single braid-matrix inverse.
    n = args.grid
    values = np.array([2.0 * k / n for k in range(1, n + 1)])
    i, j = np.divmod(np.arange(n * n), n)
    index = np.stack([i, j, n + np.arange(n * n)])
    spectral = np.concatenate([values, values[i] * values[j]])
    entries = []
    for sign in _signs(args):
        for phi in _phi_grid(args.phi_grid):
            table = build_R_x_stack(sign, np.exp(-1j * phi), spectral)
            results = _qybe_blocks(n * n, lambda block: table[index[:, block]])
            # One entry per non-finite point, else the first maximum.
            nonfinite = np.flatnonzero(~np.isfinite(results))
            picks = nonfinite if len(nonfinite) else [int(np.argmax(results))]
            entries.extend(
                (
                    f"sign={sign} phi={phi!r} x={float(values[i[k]])!r}"
                    f" y={float(values[j[k]])!r}",
                    float(results[k]),
                )
                for k in picks
            )
    return entries, len(_signs(args)) * args.phi_grid * n * n


def _verify_unitarity(args: argparse.Namespace) -> tuple[list[tuple[str, float]], int]:
    xs = np.linspace(-3.0, 3.0, args.grid)
    entries = []
    for sign in _signs(args):
        for phi in _phi_grid(args.phi_grid):
            for x in xs:
                value = unitarity_residual(build_R_x_normalized(sign, phi, float(x)))
                entries.append((f"sign={sign} phi={phi!r} x={float(x)!r}", value))
    return entries, len(entries)


def _verify_schrodinger(args: argparse.Namespace) -> tuple[list[tuple[str, float]], int]:
    rng = np.random.default_rng(_seed())
    states = []
    for _ in range(8):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        states.append(v / np.linalg.norm(v))
    entries = []
    for sign in _signs(args):
        for phi in (0.0, math.pi / 3.0):
            for x in (0.4, 1.0, 2.0):
                for index, psi0 in enumerate(states):
                    value = schrodinger_residual(sign, phi, psi0, x, h=args.step)
                    entries.append(
                        (f"sign={sign} phi={phi!r} x={x!r} state={index}", value)
                    )
    return entries, len(entries)


def _verify_exponential(args: argparse.Namespace) -> tuple[list[tuple[str, float]], int]:
    entries = []
    thetas = np.linspace(0.0, 2.0 * math.pi, 9)
    for sign in _signs(args):
        for phi in _phi_grid(args.phi_grid):
            for theta in thetas:
                theta = float(theta)
                closed = residual(
                    R_from_H(sign, phi, theta), build_R_theta(sign, phi, theta)
                )
                entries.append((f"R sign={sign} phi={phi!r} theta={theta!r}", closed))
                generator = interaction_operator(sign, phi)
                direct = residual(
                    evolution_U(sign, phi, theta), expm(-0.5j * theta * generator)
                )
                entries.append((f"U sign={sign} phi={phi!r} theta={theta!r}", direct))
    entries.append(
        (
            "bphi(-,0) vs expm(i pi/4 x.y)",
            residual(build_b_phi("-", 0.0), expm(0.25j * math.pi * kron(SIGMA_X, SIGMA_Y))),
        )
    )
    return entries, len(entries)


_VERIFY_RUNNERS = {
    "braid": _verify_braid,
    "qybe": _verify_qybe,
    "unitarity": _verify_unitarity,
    "schrodinger": _verify_schrodinger,
    "exponential": _verify_exponential,
}


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.matrix_file and args.relation != "braid":
        raise CliError("only braid accepts --matrix-file")
    tol = args.tol if args.tol is not None else _DEFAULT_TOL[args.relation]
    entries, points = _VERIFY_RUNNERS[args.relation](args)
    # max() skips a NaN that follows a finite value, so non-finite
    # residuals are picked out first and always fail.
    nonfinite = [entry for entry in entries if not math.isfinite(entry[1])]
    if nonfinite:
        worst_label, worst_value = nonfinite[0]
    else:
        worst_label, worst_value = max(entries, key=lambda item: item[1])
    passed = not nonfinite and worst_value < tol
    report = {
        "command": "verify",
        "relation": args.relation,
        "points": points,
        "tol": tol,
        "max_residual": _json_float(worst_value),
        "worst": worst_label,
        "pass": passed,
    }
    if nonfinite:
        report["nonfinite"] = len(nonfinite)
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


# --- matrix -----------------------------------------------------------

def _require(args: argparse.Namespace, names: list[str]) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            raise CliError(f"family {args.family!r} requires --{name}")


def _resolve_theta(args: argparse.Namespace) -> float:
    if args.theta is not None and args.x is not None:
        raise CliError("give either --theta or --x, not both")
    if args.theta is not None:
        return args.theta
    if args.x is not None:
        return theta_from_x(args.x)
    raise CliError(f"family {args.family!r} requires --theta or --x")


def _build_family_matrix(args: argparse.Namespace) -> tuple[np.ndarray, dict[str, str]]:
    family = args.family
    meta: dict[str, str] = {"family": family}
    if family == "cnot":
        return cnot(), meta
    _require(args, ["sign"])
    meta["sign"] = args.sign
    if family == "b":
        _require(args, ["q"])
        meta["q"] = args.q
        return build_b(args.sign, _parse_q(args.q)), meta
    if family == "Rx":
        _require(args, ["q", "x"])
        meta["q"] = args.q
        meta["x"] = repr(args.x)
        return build_R_x(args.sign, _parse_q(args.q), args.x), meta
    _require(args, ["phi"])
    meta["phi"] = repr(args.phi)
    if family == "bphi":
        return build_b_phi(args.sign, args.phi), meta
    if family == "H":
        return hamiltonian_const(args.sign, args.phi), meta
    if family == "Hx":
        _require(args, ["x"])
        meta["x"] = repr(args.x)
        return hamiltonian_x(args.sign, args.phi, args.x), meta
    if family == "U":
        _require(args, ["theta"])
        meta["theta"] = repr(args.theta)
        return evolution_U(args.sign, args.phi, args.theta), meta
    if family == "Rtheta":
        theta = _resolve_theta(args)
        meta["theta"] = repr(theta)
        return build_R_theta(args.sign, args.phi, theta), meta
    raise CliError(f"unknown family {family!r}")


def _cmd_matrix(args: argparse.Namespace) -> int:
    matrix, meta = _build_family_matrix(args)
    if _refuse_nonfinite(matrix, f"the {args.family} matrix at these parameters"):
        return 1
    print(MatrixDocument.from_matrix(matrix, meta).to_json())
    return 0


# --- synthesize -------------------------------------------------------

def _cmd_synthesize(args: argparse.Namespace) -> int:
    tol = args.tol if args.tol is not None else _DEFAULT_TOL["synthesize"]
    if args.route == "theorem1":
        candidate = cnot_via_theorem1()
        meta = {"route": "theorem1"}
    else:
        phi = args.phi if args.phi is not None else 0.0
        theta = args.theta if args.theta is not None else math.pi / 2.0
        candidate = cnot_via_evolution(phi, theta=theta)
        meta = {"route": "evolution", "phi": repr(phi), "theta": repr(theta)}
    if _refuse_nonfinite(candidate, f"the {args.route} route's matrix"):
        return 1
    target = cnot()
    value = residual(candidate, target)
    if value < tol:
        verdict, phase_angle = "exact", 0.0
    else:
        phase = global_phase_between(candidate, target)
        if phase is None:
            verdict, phase_angle = "mismatch", None
        else:
            verdict, phase_angle = "phase-only", math.atan2(phase.imag, phase.real)
    report = {
        "command": "synthesize",
        "route": args.route,
        "residual": value,
        "tol": tol,
        "verdict": verdict,
        "phase_angle": phase_angle,
        "matrix": {
            "dim": 4,
            "data": MatrixDocument.from_matrix(candidate).data,
            "meta": meta,
        },
    }
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0 if value < tol else 1


# --- sweep ------------------------------------------------------------

def _pointwise(evaluate):
    return lambda values: [float(evaluate(v)) for v in values]


def _sweep_evaluator(args: argparse.Namespace):
    """A function from the list of parameter values to the list of results."""
    sign = args.sign or "-"
    phi = args.phi if args.phi is not None else 0.0
    theta = args.theta if args.theta is not None else 0.0
    x = args.x if args.x is not None else 0.3
    y = args.y if args.y is not None else 0.7
    quantity, param = args.quantity, args.param
    if quantity == "concurrence":
        if param == "theta":
            return _pointwise(lambda v: concurrence(r_theta_action(sign, phi, v, 0)))
        if param == "phi":
            return _pointwise(lambda v: concurrence(r_theta_action(sign, v, theta, 0)))
    if quantity == "unitarity":
        if param == "x":
            return _pointwise(lambda v: unitarity_residual(build_R_x_normalized(sign, phi, v)))
        if param == "phi":
            return _pointwise(lambda v: unitarity_residual(build_R_x_normalized(sign, v, x)))
    if quantity == "braid":
        if param == "phi":
            return _pointwise(lambda v: braid_residual(build_b_phi(sign, v)))
    if quantity == "qybe":
        # Each block builds the family at x, y and x*y for its points as one
        # (3, B, 4, 4) stack, with one braid matrix and inverse per q.
        if param == "x":
            q = np.exp(-1j * phi)

            def sweep_x(values: list[float]) -> list[float]:
                xs = np.asarray(values)

                def stacks(block: slice) -> np.ndarray:
                    v = xs[block]
                    return build_R_x_stack(sign, q, np.stack([v, np.full_like(v, y), v * y]))

                return _qybe_blocks(len(xs), stacks).tolist()

            return sweep_x
        if param == "phi":

            def sweep_phi(values: list[float]) -> list[float]:
                qs = np.exp(-1j * np.asarray(values))
                spectral = np.array([[x], [y], [x * y]])
                return _qybe_blocks(
                    len(qs), lambda block: build_R_x_stack(sign, qs[block], spectral)
                ).tolist()

            return sweep_phi
    raise CliError(f"quantity {quantity!r} cannot sweep parameter {param!r}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise CliError("--steps must be at least 2")
    evaluate = _sweep_evaluator(args)
    values = [
        args.start + (args.stop - args.start) * k / (args.steps - 1)
        for k in range(args.steps)
    ]
    if not all(math.isfinite(v) for v in values):
        raise CliError("--from/--to span overflows the parameter grid")
    results = evaluate(values)
    tol = args.tol if args.tol is not None else _SWEEP_TOL.get(args.quantity)
    nonfinite = sum(not math.isfinite(r) for r in results)
    # A non-finite result fails, and is the peak, whatever the tolerance.
    peak = math.nan if nonfinite else max(results)
    passed = False if nonfinite else None if tol is None else peak < tol
    if args.format == "csv":
        lines = ["param,value,quantity"]
        lines.extend(
            f"{args.param},{value!r},{result!r}"
            for value, result in zip(values, results)
        )
        text = "\n".join(lines) + "\n"
    else:
        report = {
            "command": "sweep",
            "quantity": args.quantity,
            "parameter": args.param,
            "values": [_json_float(v) for v in values],
            "results": [_json_float(r) for r in results],
            "max_value": _json_float(peak),
            "tol": tol,
            "pass": passed,
        }
        if nonfinite:
            report["nonfinite"] = nonfinite
        text = json.dumps(report, sort_keys=True, allow_nan=False) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            raise CliError(f"cannot write {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)
    return 1 if passed is False else 0


# --- parser -----------------------------------------------------------

def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = _finite_float(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


def _add_common_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sign", choices=["+", "-"], help="family sign")
    parser.add_argument("--phi", type=float, help="deformation angle in radians")
    parser.add_argument("--theta", type=float, help="evolution angle in radians")
    parser.add_argument("--x", type=float, help="spectral parameter")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ybg",
        description="Verify, construct, and synthesize braid-family two-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a relation check over its grid")
    verify.add_argument(
        "relation", choices=["braid", "qybe", "unitarity", "schrodinger", "exponential"]
    )
    verify.add_argument("--sign", choices=["+", "-"], help="restrict to one sign")
    verify.add_argument(
        "--tol", type=_finite_float, help="pass tolerance (per-relation default)"
    )
    verify.add_argument(
        "--grid", type=_positive_int, default=None, help="points per spectral axis"
    )
    verify.add_argument(
        "--phi-grid", type=_positive_int, default=None, help="deformation grid points"
    )
    verify.add_argument(
        "--step", type=_positive_float, default=1e-5, help="finite-difference step"
    )
    verify.add_argument("--matrix-file", help="check one matrix document (braid only)")
    verify.set_defaults(func=_cmd_verify)

    matrix = sub.add_parser("matrix", help="print a matrix document")
    matrix.add_argument(
        "family", choices=["b", "bphi", "Rx", "Rtheta", "H", "Hx", "U", "cnot"]
    )
    _add_common_params(matrix)
    matrix.add_argument("--q", help="deformation parameter as 're' or 're,im'")
    matrix.set_defaults(func=_cmd_matrix)

    synthesize = sub.add_parser("synthesize", help="build CNOT along one route")
    synthesize.add_argument("route", choices=["theorem1", "evolution"])
    synthesize.add_argument("--phi", type=float, help="deformation angle (evolution route)")
    synthesize.add_argument("--theta", type=float, help="evolution angle, default pi/2")
    synthesize.add_argument("--tol", type=_finite_float, help="pass tolerance, default 1e-12")
    synthesize.set_defaults(func=_cmd_synthesize)

    sweep = sub.add_parser("sweep", help="tabulate a quantity over a range")
    sweep.add_argument(
        "quantity", choices=["concurrence", "unitarity", "braid", "qybe"]
    )
    sweep.add_argument("--param", required=True, choices=["theta", "phi", "x"])
    sweep.add_argument("--from", dest="start", type=_finite_float, required=True)
    sweep.add_argument("--to", dest="stop", type=_finite_float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    _add_common_params(sweep)
    sweep.add_argument("--y", type=float, help="second spectral value (qybe)")
    sweep.add_argument("--tol", type=_finite_float, help="pass tolerance for residual sweeps")
    sweep.add_argument("--format", choices=["json", "csv"], default="json")
    sweep.add_argument("--out", help="write the report to a file instead of stdout")
    sweep.set_defaults(func=_cmd_sweep)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if args.command == "verify":
        if args.phi_grid is None:
            args.phi_grid = 32 if args.relation == "braid" else 8
        if args.grid is None:
            args.grid = 61 if args.relation == "unitarity" else 16
    try:
        return args.func(args)
    except (CliError, ValueError, ArithmeticError) as exc:
        # ValueError covers domain errors from the constructors (zero
        # deformation, bad signs, dimension mismatches on loaded files);
        # ArithmeticError covers overflow on out-of-range parameters.
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
