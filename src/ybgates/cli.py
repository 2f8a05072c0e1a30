"""Command-line surface: verifiers, matrix constructors, CNOT synthesis,
and parameter sweeps.

Subcommands
    verify      run a relation check over its parameter grid, exit 0/1
    matrix      print one gate or Hamiltonian as a JSON matrix document
    synthesize  build CNOT along one of the two routes and report residuals
    sweep       tabulate a quantity over a parameter range (JSON or CSV)

Exit codes: 0 pass, 1 verification failure, 2 usage or IO error. Output is
deterministic: one fixed seed and shortest round-trip float formatting, so
repeated runs are byte-identical.

Matrix files are JSON objects {"dim": n, "data": [[re, im], ...],
"meta": {...}} with row-major data; parsing a serialized document
reproduces the matrix bit-exactly.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .eightvertex import (
    angle_form,
    build_b,
    build_b_phi,
    build_b_phi_stack,
    build_R_theta,
    build_R_x,
    build_R_x_normalized_stack,
    R_x_family,
)
from .entangle import r_theta_concurrences
from .gates import _quarter_turn, cnot, cnot_via_evolution, cnot_via_theorem1, global_phase_between
from .hamiltonian import (
    _product,
    evolution_form,
    evolution_U,
    hamiltonian_const,
    hamiltonian_form,
    hamiltonian_x,
    interaction_operator,
    r_from_h_form,
    schrodinger_residuals,
)
from .linalg import _eye, kron, read_only, residual, residuals, unitarity_residuals
from .paulis import DEFAULT_SEED, SIGMA_X, SIGMA_Y
from .yangbaxter import braid_residuals, qybe_residuals

_SYNTHESIZE_TOL = 1e-12

# _qybe expands QYBE points in blocks of about this many: rows of x values by
# the y axis, and as many phis as fit. Each block pays its numpy set-up once;
# the kernel reuses one workspace over the block's 64-point chunks (yangbaxter._CHUNK).
_QYBE_BLOCK = 256


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
        return np.array([complex(re, im) for re, im in self.data]).reshape(self.dim, self.dim)

    def to_json(self) -> str:
        return json.dumps(vars(self), sort_keys=True, separators=(",", ":"), allow_nan=False)

    @classmethod
    def from_json(cls, text: str) -> "MatrixDocument":
        try:  # int() stops at 4300 digits: a long integer is a np.float64, +-inf past the range
            payload = json.loads(text, parse_int=lambda s: int(s) if len(s) < 310 else np.float64(s))
        except json.JSONDecodeError as exc:
            raise CliError(f"invalid matrix document: {exc}") from exc
        if not isinstance(payload, dict):
            raise CliError("matrix document must be a JSON object")
        try:
            dim, data = payload["dim"], payload["data"]
        except KeyError as exc:
            raise CliError(f"matrix document missing dim/data: {exc}") from exc
        if type(dim) is np.float64:
            raise CliError("matrix dim is too large: a JSON integer of 310 or more characters")
        if type(dim) is not int:  # not 4.7, "4", true or null
            raise CliError(f"matrix dim must be a JSON integer, got {json.dumps(dim)}")
        if dim <= 0:
            raise CliError(f"matrix dim must be positive, got {dim}")
        if not isinstance(data, list) or len(data) != dim * dim:
            raise CliError(f"matrix data must hold {dim * dim} [re, im] pairs")
        pairs = []
        for entry in data:
            if not isinstance(entry, list) or len(entry) != 2:
                raise CliError("matrix entries must be [re, im] pairs")
            if not all(type(v) in (int, float, np.float64) for v in entry):
                raise CliError("matrix entries must be numeric [re, im] pairs")
            pairs.append([float(str(v)) for v in entry])  # an int past the range is +-inf
        meta = payload.get("meta", {})
        if not isinstance(meta, dict):
            raise CliError("matrix meta must be an object")
        return cls(dim=dim, data=pairs, meta={str(k): str(v) for k, v in meta.items()})

    @classmethod
    def load(cls, path: str) -> "MatrixDocument":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_json(handle.read())
        except OSError as exc:
            raise CliError(f"cannot read {path}: {exc}") from exc


def _parse_q(text: str) -> complex:
    try:
        q = complex(*map(float, text.split(",")))  # TypeError for three parts or more
    except (TypeError, ValueError):
        q = math.nan
    if not np.isfinite(q):
        raise CliError(f"--q expects finite 're' or 're,im', got {text!r}")
    return q


def _signs(sign: str | None) -> list[str]:
    return [sign] if sign else ["+", "-"]


def _phi_grid(n: int) -> np.ndarray:
    # The same float operations as 2.0 * math.pi * k / n for each k.
    return 2.0 * math.pi * np.arange(n) / n


def _read_flags(args: argparse.Namespace, flags: dict, command: str) -> dict:
    """The value of each key of ``flags``: the one given, else its value
    there, the default. Refuse every optional flag given that is not a key
    of ``flags``."""
    for name in _FLAGS:
        if getattr(args, name, None) is not None and name not in flags:
            raise CliError(f"--{name.replace('_', '-')} is not used by {command}")
    return {
        name: default if getattr(args, name) is None else getattr(args, name)
        for name, default in flags.items()
    }


def _given(values: dict) -> dict[str, str]:
    """Each flag value, as a document meta string."""
    return {name: v if isinstance(v, str) else repr(v) for name, v in values.items()}


def _picks(results: np.ndarray, label) -> tuple[str, float, int]:
    """The worst point's label and result, and the count of non-finite results.

    The worst is the first non-finite result, or else the first maximum.
    ``results`` holds a runner's residuals in its grid order and
    ``label(k)`` names point k, so only the worst point is labelled.
    """
    nonfinite = np.flatnonzero(~np.isfinite(results))
    k = int(nonfinite[0]) if len(nonfinite) else int(np.argmax(results))
    return label(k), float(results[k]), len(nonfinite)


def _grid_label(*axes: tuple[str, Sequence]) -> Callable[[int], str]:
    """label(k) for point k of the grid over ``axes``, (name, values) pairs
    with the last axis fastest, as 'name=value ...'."""
    shape = [len(values) for _, values in axes]

    def label(k: int) -> str:
        index = np.unravel_index(k, shape)
        return " ".join(f"{name}={values[i]}" for (name, values), i in zip(axes, index))

    return label


def _json_float(value: float) -> float | None:
    return value if math.isfinite(value) else None


# --- verify -----------------------------------------------------------

def _braid(sign, phi) -> np.ndarray:
    """Braid-relation residual of b(sign, phi) at each (sign, phi)."""
    return braid_residuals(build_b_phi_stack(sign, phi))


def _unitarity(sign, phi, x) -> np.ndarray:
    """Unitarity residual of the normalized R(x), sign, phi and x broadcast."""
    # One build per label: merged, verify's 976 points pay glibc mmap/trim page faults.
    return np.concatenate(
        [unitarity_residuals(build_R_x_normalized_stack(s, phi, x)) for s in np.ravel(sign)])


def _qybe(sign, phi, x, y) -> np.ndarray:
    """QYBE residual of R(x) over the open grid sign x phi x x x y, in its shape."""
    shape = np.broadcast_shapes(*map(np.shape, (sign, phi, x, y)))
    phi, x, y = (np.asarray(a, dtype=float).ravel() for a in (phi, x, y))
    out = np.empty((np.size(sign), len(phi), len(x), len(y)))
    rows = max(1, min(len(x), _QYBE_BLOCK // len(y)))
    phis = max(1, _QYBE_BLOCK // (rows * len(y)))
    for s, grid in zip(np.ravel(sign), out):
        for p in range(0, len(phi), phis):
            family = R_x_family(s, np.exp(-1j * phi[p : p + phis])[:, None, None])
            r_y = np.repeat(family(y), rows, axis=1)  # points run phi, x, then y fastest
            for i in range(0, len(x), rows):
                xs = x[i : i + rows]
                r_x = np.repeat(family(xs).reshape(-1, 4, 4), len(y), axis=0)
                r_xy = family(xs[:, None] * y).reshape(-1, 4, 4)
                r_ys = r_y[:, : len(xs)].reshape(-1, 4, 4)
                grid[p : p + phis, i : i + rows].flat = qybe_residuals(r_x, r_ys, r_xy)
    return out.reshape(shape)


# What each verify runner returns: residuals in grid order, and label(k).
_Labelled = tuple[np.ndarray, Callable[[int], str]]


def _over_grid(kernel, sign: str | None, *axes: tuple[str, np.ndarray]) -> _Labelled:
    """kernel(sign=labels, name=values, ...), one call over the open grid of the signs and
    ``axes``, (name, values) pairs, as np.ix_ arrays; points run sign, then the axes, the
    last fastest. The result is allocated first, so a grid too large to hold fails at once."""
    axes = (("sign", _signs(sign)), *axes)
    names, values = zip(*axes)
    results = np.empty(tuple(map(len, values)))
    results[...] = kernel(**dict(zip(names, np.ix_(*values))))
    return results.ravel(), _grid_label(*axes)


def _verify_matrix_file(matrix_file: str) -> _Labelled:
    b = MatrixDocument.load(matrix_file).to_matrix()
    result = braid_residuals(b)  # first: it refuses a matrix that is not 4x4
    # A singular b satisfies the relation trivially (zero does, at residual 0).
    if np.isfinite(b).all() and np.linalg.matrix_rank(b) < 4:
        raise CliError(f"{matrix_file} is singular; a braid generator must be invertible")
    return np.array([result]), lambda k: f"file={matrix_file}"


def _verify_braid(sign: str | None, phi_grid: int) -> _Labelled:
    return _over_grid(_braid, sign, ("phi", _phi_grid(phi_grid)))


def _verify_qybe(sign: str | None, grid: int, phi_grid: int) -> _Labelled:
    values = 2.0 * np.arange(1, grid + 1) / grid
    return _over_grid(_qybe, sign, ("phi", _phi_grid(phi_grid)), ("x", values), ("y", values))


def _verify_unitarity(sign: str | None, grid: int, phi_grid: int) -> _Labelled:
    xs = np.linspace(-3.0, 3.0, grid)
    return _over_grid(_unitarity, sign, ("phi", _phi_grid(phi_grid)), ("x", xs))


_SCHRODINGER_PHIS = (0.0, math.pi / 3.0)
_SCHRODINGER_XS = (0.4, 1.0, 2.0)


@functools.cache
def _schrodinger_states() -> np.ndarray:
    """verify schrodinger's eight unit states, drawn from DEFAULT_SEED one at
    a time, as one read-only (8, 4) array built on first use."""
    rng = np.random.default_rng(DEFAULT_SEED)
    draws = [rng.standard_normal(4) + 1j * rng.standard_normal(4) for _ in range(8)]
    return read_only(np.array([v / np.linalg.norm(v) for v in draws]))


def _schrodinger(sign: str, phi, x, state) -> np.ndarray:
    """State-equation residual of verify's states, by index, phi and x broadcast."""
    return schrodinger_residuals(sign, phi, _schrodinger_states()[state.ravel()], x)[..., 0, :]


def _verify_schrodinger(sign: str | None) -> _Labelled:
    states = ("state", range(len(_schrodinger_states())))
    return _over_grid(_schrodinger, sign, ("phi", _SCHRODINGER_PHIS), ("x", _SCHRODINGER_XS), states)


def _verify_exponential(sign: str | None, phi_grid: int) -> _Labelled:
    # Points run sign, phi, theta, then R (through the per-point closed
    # forms, which take theta) before U. Sigma^2 = I makes U(theta) a group
    # with U(pi) = -i Sigma exactly, so no series is needed: a U row is the
    # worse of the doubling law U(theta/2)^2 = U(theta) and that anchor.
    signs, phis = _signs(sign), _phi_grid(phi_grid)
    thetas = np.linspace(0.0, 2.0 * math.pi, 9)
    b = build_b_phi_stack(np.array(signs)[:, None], phis)[:, :, None]
    t = thetas[:, None, None]
    closed = residuals(r_from_h_form(hamiltonian_form(b, 1.0), t), angle_form(b, t))
    sigma = np.array([interaction_operator(s, phis) for s in signs])[:, :, None]
    u = evolution_form(sigma, np.concatenate([thetas, thetas / 2.0, [math.pi]])[:, None, None])
    full, half, at_pi = np.split(u, [9, 18], axis=2)
    direct = np.maximum(residuals(_product(half, half), full), residuals(at_pi, -1j * sigma))
    xy = kron(SIGMA_X, SIGMA_Y)  # an involution too, whose quarter turn is bphi(-,0)
    fixed = residuals([build_b_phi("-", 0.0), _product(xy, xy)], [_quarter_turn(xy), _eye(4)]).max()
    results = np.append(np.stack([np.ravel(closed), np.ravel(direct)], axis=-1), fixed)
    grid = _grid_label(("sign", signs), ("phi", phis), ("theta", thetas.tolist()))
    fixed_label, last = "bphi(-,0) vs exp(i pi/4 x.y)", len(results) - 1
    return results, lambda k: fixed_label if k == last else f"{'RU'[k % 2]} {grid(k // 2)}"


# Each relation's runner, default tolerance, and the optional flags it
# reads with their defaults (sign None runs both), which it is called with
# by keyword; a flag it does not read is refused, never ignored. A runner
# returns its residuals in grid order and a label for each point.
_RELATIONS = {
    "braid": (_verify_braid, 1e-12, {"sign": None, "phi_grid": 32}),
    "qybe": (_verify_qybe, 1e-10, {"sign": None, "grid": 16, "phi_grid": 8}),
    "unitarity": (_verify_unitarity, 1e-12, {"sign": None, "grid": 61, "phi_grid": 8}),
    "schrodinger": (_verify_schrodinger, 1e-6, {"sign": None}),
    "exponential": (_verify_exponential, 1e-12, {"sign": None, "phi_grid": 8}),
}


def _cmd_verify(args: argparse.Namespace) -> int:
    run, default_tol, flags = _RELATIONS[args.relation]
    command = f"verify {args.relation}"
    if args.matrix_file:
        if args.relation != "braid":
            raise CliError("only braid accepts --matrix-file")
        flags, command = {"matrix_file": None}, command + " --matrix-file"
        run = _verify_matrix_file
    values = _read_flags(args, {**flags, "tol": default_tol}, command)
    tol = values.pop("tol")
    results, label = run(**values)
    worst_label, worst_value, nonfinite = _picks(results, label)
    passed = not nonfinite and worst_value < tol
    report = {
        "command": "verify",
        "relation": args.relation,
        "points": len(results),
        "tol": tol,
        "max_residual": _json_float(worst_value),
        "worst": worst_label,
        "pass": passed,
    }
    if nonfinite:
        report["nonfinite"] = nonfinite
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0 if passed else 1


# --- matrix -----------------------------------------------------------

# Each family's flags, all of which it must be given, and its matrix,
# called with them by keyword; the flags become the document's meta.
_FAMILIES = {
    "b": (("sign", "q"), lambda sign, q: build_b(sign, _parse_q(q))),
    "bphi": (("sign", "phi"), build_b_phi),
    "Rx": (("sign", "q", "x"), lambda sign, q, x: build_R_x(sign, _parse_q(q), x)),
    "Rtheta": (("sign", "phi", "theta"), build_R_theta),
    "H": (("sign", "phi"), hamiltonian_const),
    "Hx": (("sign", "phi", "x"), hamiltonian_x),
    "U": (("sign", "phi", "theta"), evolution_U),
    "cnot": ((), cnot),
}


def _cmd_matrix(args: argparse.Namespace) -> int:
    names, build = _FAMILIES[args.family]
    command = f"matrix {args.family}"
    values = _read_flags(args, dict.fromkeys(names), command)
    for name in names:
        if values[name] is None:
            raise CliError(f"{command} requires --{name}")
    matrix = build(**values)
    if not np.isfinite(matrix).all():  # finite flags that overflow: b --q 1e-320
        raise CliError(f"the {args.family} matrix at these parameters has non-finite entries")
    meta = {"family": args.family, **_given(values)}
    print(MatrixDocument.from_matrix(matrix, meta).to_json())
    return 0


# --- synthesize -------------------------------------------------------

# Each route's flags with their defaults, and its CNOT, called with them.
_ROUTES = {
    "theorem1": ({}, cnot_via_theorem1),
    "evolution": ({"phi": 0.0, "theta": math.pi / 2.0}, cnot_via_evolution),
}


def _cmd_synthesize(args: argparse.Namespace) -> int:
    flags, build = _ROUTES[args.route]
    values = _read_flags(args, {**flags, "tol": _SYNTHESIZE_TOL}, f"synthesize {args.route}")
    tol = values.pop("tol")
    candidate, target = build(**values), cnot()
    value = residual(candidate, target)
    phase = 1.0 if value < tol else global_phase_between(candidate, target, tol)
    verdict = "exact" if value < tol else "mismatch" if phase is None else "phase-only"
    phase_angle = None if phase is None else math.atan2(phase.imag, phase.real)
    meta = {"route": args.route, **_given(values)}
    report = {
        "command": "synthesize",
        "route": args.route,
        "residual": value,
        "tol": tol,
        "verdict": verdict,
        "phase_angle": phase_angle,
        "matrix": vars(MatrixDocument.from_matrix(candidate, meta)),
    }
    print(json.dumps(report, sort_keys=True, allow_nan=False))
    return 0 if value < tol else 1


# --- sweep ------------------------------------------------------------

# Each sweep's optional flags with their defaults, and its kernel, called
# with those flags and the swept parameter by name; verify runs _braid,
# _unitarity and _qybe over its full grids. A relation's sweep has the
# relation's default tolerance; concurrence has none, and refuses --tol.
_SWEEPS = {
    ("concurrence", "theta"): ({"sign": "-", "phi": 0.0}, r_theta_concurrences),
    ("concurrence", "phi"): ({"sign": "-", "theta": 0.0}, r_theta_concurrences),
    ("unitarity", "x"): ({"sign": "-", "phi": 0.0}, _unitarity),
    ("unitarity", "phi"): ({"sign": "-", "x": 0.3}, _unitarity),
    ("braid", "phi"): ({"sign": "-"}, _braid),
    ("qybe", "x"): ({"sign": "-", "phi": 0.0, "y": 0.7}, _qybe),
    ("qybe", "phi"): ({"sign": "-", "x": 0.3, "y": 0.7}, _qybe),
}


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.steps < 2:
        raise CliError("--steps must be at least 2")
    key = (args.quantity, args.param)
    if key not in _SWEEPS:
        raise CliError("quantity {!r} cannot sweep parameter {!r}".format(*key))
    flags, kernel = _SWEEPS[key]
    tols = {"tol": _RELATIONS[args.quantity][1]} if args.quantity in _RELATIONS else {}
    values = _read_flags(args, {**flags, **tols}, "sweep {} --param {}".format(*key))
    tol = values.pop("tol", None)
    # The same float operations, in the same order, as a Python loop over k.
    grid = args.start + (args.stop - args.start) * np.arange(args.steps) / (args.steps - 1)
    if not np.isfinite(grid).all():
        raise CliError("--from/--to span overflows the parameter grid")
    results = np.empty(args.steps)  # first, as in verify: a grid too large fails at once
    try:
        results[:] = kernel(**values, **{args.param: grid})
    except OverflowError as exc:
        # Only rho(x) overflows; name the flag that set x.
        flag = "--from/--to" if args.param == "x" else f"--x {values.get('x')!r}"
        raise CliError(f"{flag}: {exc}") from exc
    # A non-finite result fails, and is the peak, whatever the tolerance.
    _, peak, nonfinite = _picks(results, str)
    values, results = grid.tolist(), results.tolist()
    passed = False if nonfinite else None if tol is None else peak < tol
    if args.format == "csv":
        rows = (f"{args.param},{value!r},{result!r}\n" for value, result in zip(values, results))
        text = "param,value,quantity\n" + "".join(rows)
    else:
        report = {
            "command": "sweep",
            "quantity": args.quantity,
            "parameter": args.param,
            "values": values,
            "results": [_json_float(r) for r in results] if nonfinite else results,
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
    if (value := _finite_float(text)) > 0:  # a --tol: no residual is below 0
        return value
    raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text!r}")
    return value


# Each optional flag that a table entry reads, in the order _read_flags
# refuses them: the subcommands that declare it, and its argparse settings.
_FLAGS = {
    "sign": ("verify matrix sweep", {"choices": ["+", "-"], "help": "family sign"}),
    "q": ("matrix", {"help": "deformation parameter as 're' or 're,im'"}),
    "grid": ("verify", {"type": _positive_int, "help": "points per spectral axis"}),
    "phi_grid": ("verify", {"type": _positive_int, "help": "deformation grid points"}),
    "matrix_file": ("verify", {"help": "check one matrix document (braid only)"}),
    "phi": ("matrix synthesize sweep", {"type": _finite_float, "help": "deformation angle (rad)"}),
    "theta": ("matrix synthesize sweep", {"type": _finite_float, "help": "evolution angle (rad)"}),
    "x": ("matrix sweep", {"type": _finite_float, "help": "spectral parameter"}),
    "y": ("sweep", {"type": _finite_float, "help": "second spectral value (qybe)"}),
    "tol": ("verify synthesize sweep", {"type": _positive_float, "help": "pass tolerance"}),
}


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reads each flag only as spelled in full, any
    negative number as a value, and refuses its own leftover arguments.

    argparse before Python 3.13 takes only '-12' and '-1.5' for negative
    numbers, so '--from -1e-05', '--q -1,0' or '--tol -inf' failed as a
    missing argument. Like Python 3.13, anything starting '-' then a digit
    (or '-.' then a digit) is a number here; so are -inf and -nan. No
    option of this parser looks like a number.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs, allow_abbrev=False)
        self._negative_number_matcher = re.compile(
            r"^-\.?\d|^-(inf|infinity|nan)$", re.IGNORECASE
        )

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:  # here, not at the top level, so the error names the subcommand
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


@functools.lru_cache(maxsize=None)
def _build_parser() -> argparse.ArgumentParser:
    # Built on first use and kept: repeated main() calls in one process
    # share it, and importing the module builds nothing.
    parser = _Parser(
        prog="ybg",
        description="Verify, construct, and synthesize braid-family two-qubit gates.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a relation check over its grid")
    verify.add_argument("relation", choices=list(_RELATIONS))
    verify.set_defaults(func=_cmd_verify)

    matrix = sub.add_parser("matrix", help="print a matrix document")
    matrix.add_argument("family", choices=list(_FAMILIES))
    matrix.set_defaults(func=_cmd_matrix)

    synthesize = sub.add_parser("synthesize", help="build CNOT along one route")
    synthesize.add_argument("route", choices=list(_ROUTES))
    synthesize.set_defaults(func=_cmd_synthesize)

    sweep = sub.add_parser("sweep", help="tabulate a quantity over a range")
    sweep.add_argument("quantity", choices=list(dict.fromkeys(q for q, _ in _SWEEPS)))
    sweep.add_argument(
        "--param", required=True, choices=list(dict.fromkeys(p for _, p in _SWEEPS))
    )
    sweep.add_argument("--from", dest="start", type=_finite_float, required=True)
    sweep.add_argument("--to", dest="stop", type=_finite_float, required=True)
    sweep.add_argument("--steps", type=int, required=True)
    sweep.add_argument("--format", choices=["json", "csv"], default="json")
    sweep.add_argument("--out", help="write the report to a file instead of stdout")
    sweep.set_defaults(func=_cmd_sweep)

    for name, (commands, settings) in _FLAGS.items():
        for command in commands.split():
            sub.choices[command].add_argument(f"--{name.replace('_', '-')}", **settings)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        # The parser refuses non-finite flags, and explicit checks report
        # finite ones that overflow; numpy's warnings would only add noise.
        with np.errstate(all="ignore"):
            code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing reads stdout any more: point it at devnull so that the
        # interpreter's flush at exit cannot fail a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("error: stdout was closed before the output was written", file=sys.stderr)
        return 2
    except (CliError, ValueError, ArithmeticError, MemoryError) as exc:
        # ValueError covers domain errors from the constructors (zero
        # deformation, bad signs, dimension mismatches on loaded files);
        # ArithmeticError covers overflow on out-of-range parameters and
        # MemoryError a grid too large to allocate.
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
