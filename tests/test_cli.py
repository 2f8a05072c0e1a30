"""Command-line contract: exit codes, documents, determinism."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qybe_point import qybe_point
import ybgates.cli
import ybgates.linalg
from ybgates.cli import MatrixDocument, main
from ybgates.eightvertex import (
    build_b_phi,
    build_R_theta,
    build_R_x,
    build_R_x_normalized,
)
from ybgates.entangle import concurrence, r_theta_action
from ybgates.gates import cnot
from ybgates.hamiltonian import (
    evolution_U,
    hamiltonian_const,
    interaction_operator,
    schrodinger_residuals,
)
from ybgates.linalg import kron, residual, unitarity_residuals
from ybgates.paulis import DEFAULT_SEED, SIGMA_X, SIGMA_Y
from ybgates.yangbaxter import braid_residuals

# `ybg verify qybe` stdout, pinned at the path kernel, whose sums do not
# depend on the BLAS kernel (the BLAS products before it reported the same
# residual at phi=5.497787143782138 on SkylakeX).
VERIFY_QYBE_GOLDEN = (
    '{"command": "verify", "max_residual": 7.105427357601002e-15, "pass": true, '
    '"points": 4096, "relation": "qybe", "tol": 1e-10, '
    '"worst": "sign=+ phi=3.9269908169872414 x=2.0 y=2.0"}\n'
)

# Stdout of the four other relations at the defaults and at a failing
# --tol with other flags, so a pick off the default grid is pinned too;
# braid, unitarity and schrodinger pinned at the path kernel and the
# closed-form Baxterization.
RELATION_GOLDEN = {
    ("verify", "braid"): (
        0,
        '{"command": "verify", "max_residual": 1.1762074600683514e-16, "pass": true, '
        '"points": 64, "relation": "braid", "tol": 1e-12, '
        '"worst": "sign=+ phi=2.1598449493429825"}\n',
    ),
    ("verify", "unitarity"): (
        0,
        '{"command": "verify", "max_residual": 6.665484878399117e-16, "pass": true, '
        '"points": 976, "relation": "unitarity", "tol": 1e-12, '
        '"worst": "sign=+ phi=3.9269908169872414 x=-1.9"}\n',
    ),
    ("verify", "schrodinger"): (
        0,
        '{"command": "verify", "max_residual": 5.344586110002821e-11, "pass": true, '
        '"points": 96, "relation": "schrodinger", "tol": 1e-06, '
        '"worst": "sign=- phi=1.0471975511965976 x=0.4 state=3"}\n',
    ),
    ("verify", "exponential"): (
        0,
        '{"command": "verify", "max_residual": 2.718345674301793e-16, "pass": true, '
        '"points": 289, "relation": "exponential", "tol": 1e-12, '
        '"worst": "U sign=+ phi=0.7853981633974483 theta=3.141592653589793"}\n',
    ),
    ("verify", "braid", "--sign", "+", "--phi-grid", "7", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 1.1475193641674615e-16, "pass": false, '
        '"points": 7, "relation": "braid", "tol": 1e-17, '
        '"worst": "sign=+ phi=3.5903916041026207"}\n',
    ),
    ("verify", "unitarity", "--sign", "-", "--grid", "7", "--phi-grid", "3", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 3.332478321192316e-16, "pass": false, '
        '"points": 21, "relation": "unitarity", "tol": 1e-17, '
        '"worst": "sign=- phi=2.0943951023931953 x=0.0"}\n',
    ),
    ("verify", "exponential", "--sign", "-", "--phi-grid", "3", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 2.220446049250313e-16, "pass": false, '
        '"points": 55, "relation": "exponential", "tol": 1e-17, '
        '"worst": "R sign=- phi=0.0 theta=3.9269908169872414"}\n',
    ),
}


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_braid_passes(capsys):
    code, out, _ = run_cli(["verify", "braid", "--sign", "-", "--tol", "1e-12"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert report["max_residual"] < 1e-12
    assert report["points"] == 32


def test_verify_qybe_passes(capsys):
    code, out, _ = run_cli(
        ["verify", "qybe", "--sign", "+", "--grid", "8", "--tol", "1e-10"], capsys
    )
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_verify_braid_perturbed_matrix_file(tmp_path, capsys):
    bad = build_b_phi("-", 0.0).copy()
    bad[0, 0] += 0.1
    path = tmp_path / "bad.json"
    path.write_text(MatrixDocument.from_matrix(bad, {"family": "perturbed"}).to_json())
    code, out, _ = run_cli(
        ["verify", "braid", "--matrix-file", str(path), "--tol", "1e-12"], capsys
    )
    assert code == 1
    assert json.loads(out)["pass"] is False


@pytest.mark.parametrize(
    "matrix, invertible",
    [
        (np.zeros((4, 4)), False),
        (np.diag([1.0, 1.0, 0.0, 0.0]), False),
        (1e-4 * build_b_phi("-", 0.3), True),
    ],
    ids=["zero", "rank-2", "scaled-generator"],
)
def test_verify_matrix_file_refuses_singular_generators(matrix, invertible, tmp_path, capsys):
    # A singular matrix satisfies the braid relation trivially: zero, and
    # diag(1, 1, 0, 0), both at residual 0.
    path = tmp_path / "b.json"
    path.write_text(MatrixDocument.from_matrix(matrix).to_json())
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    if invertible:
        assert code == 0 and json.loads(out)["pass"] is True
    else:
        message = f"error: {path} is singular; a braid generator must be invertible\n"
        assert (code, out, err) == (2, "", message)


def test_verify_malformed_matrix_file(tmp_path, capsys):
    path = tmp_path / "garbage.json"
    path.write_text("{not json")
    code, _, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 2
    assert "error" in err


def test_verify_wrong_dimension_matrix_file(tmp_path, capsys):
    doc = MatrixDocument.from_matrix(np.eye(2, dtype=complex))
    path = tmp_path / "small.json"
    path.write_text(doc.to_json())
    code, _, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 2
    assert "error" in err


def test_verify_non_numeric_matrix_file(tmp_path, capsys):
    path = tmp_path / "strings.json"
    path.write_text('{"dim": 1, "data": [["a", "b"]], "meta": {}}')
    code, _, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 2
    assert "numeric" in err


_B_PHI_DATA = MatrixDocument.from_matrix(build_b_phi("-", 0.0)).data
_NOT_NUMERIC = "matrix entries must be numeric [re, im] pairs"


@pytest.mark.parametrize(
    "dim, data, message",
    [
        # int() would truncate 4.7 and read "4", 4.0 and true as integers.
        (4.7, _B_PHI_DATA, "matrix dim must be a JSON integer, got 4.7"),
        ("4", _B_PHI_DATA, 'matrix dim must be a JSON integer, got "4"'),
        (4.0, _B_PHI_DATA, "matrix dim must be a JSON integer, got 4.0"),
        (True, [[1.0, 0.0]], "matrix dim must be a JSON integer, got true"),
        # float() would read numeric strings, and true and false as 1.0 and 0.0.
        (4, [[repr(re), repr(im)] for re, im in _B_PHI_DATA], _NOT_NUMERIC),
        (4, [[True, 0] if k % 5 == 0 else [0, 0] for k in range(16)], _NOT_NUMERIC),
        (4, [[1.0, False] if k % 5 == 0 else [0, 0] for k in range(16)], _NOT_NUMERIC),
        # A dim that is present but unusable is not reported as missing.
        (None, _B_PHI_DATA, "matrix dim must be a JSON integer, got null"),
        ("abc", _B_PHI_DATA, 'matrix dim must be a JSON integer, got "abc"'),
    ],
)
def test_verify_matrix_file_needs_json_numbers(dim, data, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"dim": dim, "data": data}))
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "dim, message",
    [
        ("9" * 400, "matrix dim is too large: a JSON integer of 310 or more characters"),
        ("9" * 5000, "matrix dim is too large: a JSON integer of 310 or more characters"),
        ("-" + "9" * 400, "matrix dim is too large: a JSON integer of 310 or more characters"),
        # The same number written as a float is not an integer at all.
        ("1e400", "matrix dim must be a JSON integer, got Infinity"),
    ],
    ids=["400 digits", "5000 digits", "minus 400 digits", "1e400"],
)
def test_verify_matrix_file_dim_past_the_range(dim, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(f'{{"dim": {dim}, "data": {json.dumps(_B_PHI_DATA)}}}')
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_verify_matrix_file_integer_entries_are_numbers(tmp_path, capsys):
    # A JSON integer entry is a number: the identity written with 1 and 0.
    path = tmp_path / "eye.json"
    data = [[1 if k % 5 == 0 else 0, 0] for k in range(16)]
    path.write_text(json.dumps({"dim": 4, "data": data}))
    code, out, _ = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 0
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "matrix document must be a JSON object"),
        ({"dim": 4}, "matrix document missing dim/data: 'data'"),
        ({"dim": 0, "data": []}, "matrix dim must be positive, got 0"),
        ({"dim": 4, "data": [[0, 0]] * 15}, "matrix data must hold 16 [re, im] pairs"),
        ({"dim": 1, "data": [[1, 0, 0]]}, "matrix entries must be [re, im] pairs"),
        ({"dim": 1, "data": [[1, 0]], "meta": [1]}, "matrix meta must be an object"),
    ],
    ids=["not-object", "no-data", "dim-0", "short-data", "three-numbers", "meta-list"],
)
def test_matrix_document_refusals_exit_2(payload, message, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(payload))
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_matrix_document_unreadable_path_exits_2(tmp_path, capsys):
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(tmp_path)], capsys)
    message = f"error: cannot read {tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"
    assert (code, out, err) == (2, "", message)


def test_verify_3x3_matrix_file_names_its_shape(tmp_path, capsys):
    # braid_residuals refuses it by its own shape, not the path kernel's.
    path = tmp_path / "three.json"
    path.write_text(MatrixDocument.from_matrix(np.eye(3)).to_json())
    code, out, err = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert (code, out, err) == (2, "", "error: expected a 4x4 matrix, got (3, 3)\n")


def test_matrix_zero_deformation_is_usage_error(capsys):
    code, _, err = run_cli(["matrix", "b", "--sign", "+", "--q", "0"], capsys)
    assert code == 2
    assert "error" in err


def test_matrix_bphi_document(capsys):
    code, out, _ = run_cli(["matrix", "bphi", "--sign", "-", "--phi", "0"], capsys)
    assert code == 0
    doc = MatrixDocument.from_json(out)
    assert doc.dim == 4
    assert doc.meta["family"] == "bphi"
    assert np.max(np.abs(doc.to_matrix() - build_b_phi("-", 0.0))) < 1e-15


def test_matrix_rx_at_one(capsys):
    code, out, _ = run_cli(
        ["matrix", "Rx", "--sign", "-", "--q", "1", "--x", "1"], capsys
    )
    assert code == 0
    doc = MatrixDocument.from_json(out)
    assert np.max(np.abs(doc.to_matrix() - 2.0 * np.eye(4))) < 1e-15


def test_matrix_cnot(capsys):
    code, out, _ = run_cli(["matrix", "cnot"], capsys)
    assert code == 0
    assert np.array_equal(MatrixDocument.from_json(out).to_matrix(), cnot())


def test_matrix_missing_parameter(capsys):
    code, _, err = run_cli(["matrix", "bphi", "--sign", "-"], capsys)
    assert code == 2
    assert "requires" in err


def test_matrix_theta_and_x_conflict(capsys):
    # Rtheta takes its angle as --theta only; --x is refused like any
    # other flag the family does not read.
    code, out, err = run_cli(
        ["matrix", "Rtheta", "--sign", "+", "--phi", "0", "--theta", "0.5", "--x", "1"],
        capsys,
    )
    assert (code, out) == (2, "")
    assert err == "error: --x is not used by matrix Rtheta\n"


def test_matrix_unused_flag_is_named_before_a_missing_one(capsys):
    code, out, err = run_cli(["matrix", "bphi", "--sign", "+", "--theta", "1"], capsys)
    assert (code, out, err) == (2, "", "error: --theta is not used by matrix bphi\n")


@pytest.mark.parametrize("q", ["1,2,3", "abc"])
def test_matrix_unparsable_q_exits_2(q, capsys):
    code, out, err = run_cli(["matrix", "b", "--sign", "+", "--q", q], capsys)
    assert (code, out, err) == (2, "", f"error: --q expects finite 're' or 're,im', got {q!r}\n")


@pytest.mark.parametrize(
    "args, line",
    [
        (["verify", "qybe", "--grid", "abc"],
         "ybg verify: error: argument --grid: expected an integer, got 'abc'"),
        (["matrix", "bphi", "--sign", "+", "--phi", "abc"],
         "ybg matrix: error: argument --phi: expected a number, got 'abc'"),
    ],
    ids=["verify-grid", "matrix-phi"],
)
def test_non_numeric_flag_value_exits_2(args, line, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out, err.splitlines()[-1]) == (2, "", line)


def test_document_round_trip_bit_exact():
    matrix = build_b_phi("+", 0.37) @ build_b_phi("-", 1.91)
    doc = MatrixDocument.from_matrix(matrix, {"family": "product"})
    again = MatrixDocument.from_json(doc.to_json())
    assert again.to_matrix().tobytes() == np.asarray(matrix).tobytes()
    assert again.to_json() == doc.to_json()


def test_synthesize_theorem1(capsys):
    code, out, _ = run_cli(["synthesize", "theorem1", "--tol", "1e-12"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["verdict"] == "exact"
    assert report["residual"] < 1e-12


def test_synthesize_evolution(capsys):
    code, out, _ = run_cli(["synthesize", "evolution", "--phi", "0.7", "--tol", "1e-12"], capsys)
    assert code == 0
    assert json.loads(out)["verdict"] == "exact"


def test_synthesize_evolution_wrong_theta_fails(capsys):
    code, out, _ = run_cli(
        ["synthesize", "evolution", "--phi", "0.7", "--theta", "0.3"], capsys
    )
    assert code == 1
    report = json.loads(out)
    assert report["residual"] > 1e-3


@pytest.mark.parametrize(
    "route", [["theorem1"], ["evolution", "--phi", "1.1"]], ids=["theorem1", "evolution"]
)
def test_synthesize_below_rounding_tol_is_mismatch_not_phase_only(route, capsys):
    # The phase-corrected residual is at rounding level, above --tol 1e-20,
    # so no phase makes the candidate pass.
    code, out, _ = run_cli(["synthesize", *route, "--tol", "1e-20"], capsys)
    report = json.loads(out)
    assert (code, report["verdict"], report["phase_angle"]) == (1, "mismatch", None)
    assert 0 < report["residual"] < 1e-15


def test_synthesize_phase_only_is_judged_by_tol(capsys):
    # theta = 5 pi/2 gives -CNOT off by about 5e-10: above 1e-12, below --tol.
    code, out, _ = run_cli(
        ["synthesize", "evolution", "--theta", "7.853981634974483", "--tol", "1e-6"], capsys
    )
    report = json.loads(out)
    assert (code, report["verdict"]) == (1, "phase-only")
    assert abs(report["phase_angle"]) == math.pi


def test_sweep_concurrence_matches_closed_form(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "concurrence", "--param", "theta",
            "--from", "0", "--to", "1.5707963267948966", "--steps", "65",
            "--format", "csv",
        ],
        capsys,
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "param,value,quantity"
    assert len(lines) == 66
    for line in lines[1:]:
        name, value, quantity = line.split(",")
        assert name == "theta"
        assert abs(float(quantity) - abs(math.cos(2.0 * float(value)))) < 1e-12


def test_sweep_unitarity(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "unitarity", "--param", "x",
            "--from", "-3", "--to", "3", "--steps", "61", "--sign", "-",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    assert report["pass"] is True
    assert all(value < 1e-12 for value in report["results"])


def test_sweep_single_step_is_usage_error(capsys):
    code, _, err = run_cli(
        ["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1", "--steps", "1"],
        capsys,
    )
    assert code == 2
    assert "steps" in err


def test_sweep_writes_file(tmp_path, capsys):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        [
            "sweep", "braid", "--param", "phi",
            "--from", "0", "--to", "6.283185307179586", "--steps", "9",
            "--format", "csv", "--out", str(out_path),
        ],
        capsys,
    )
    assert code == 0
    assert out == ""
    lines = out_path.read_text().strip().splitlines()
    assert lines[0] == "param,value,quantity"
    assert len(lines) == 10


def test_sweep_out_into_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    args = ["sweep", "braid", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"]
    code, out, err = run_cli([*args, "--out", str(path)], capsys)
    message = f"error: cannot write {path}: [Errno 2] No such file or directory: '{path}'\n"
    assert (code, out, err) == (2, "", message)


def test_sweep_concurrence_refuses_param_x(capsys):
    args = ["sweep", "concurrence", "--param", "x", "--from", "0", "--to", "1", "--steps", "3"]
    code, out, err = run_cli(args, capsys)
    message = "error: quantity 'concurrence' cannot sweep parameter 'x'\n"
    assert (code, out, err) == (2, "", message)


def test_usage_error_exit_code(capsys):
    assert main(["verify", "nonsense"]) == 2
    assert main([]) == 2


def _run_subprocess(args, env=None):
    import os

    merged = dict(os.environ)
    if env:
        merged.update(env)
    return subprocess.run(
        [sys.executable, "-m", "ybgates", *args],
        capture_output=True,
        env=merged,
    )


def test_stdout_is_byte_deterministic():
    args = ["verify", "schrodinger", "--sign", "-"]
    first = _run_subprocess(args)
    second = _run_subprocess(args)
    assert first.returncode == 0
    assert first.stdout == second.stdout

    args = ["matrix", "Rtheta", "--sign", "+", "--phi", "0.9", "--theta", "0.4"]
    assert _run_subprocess(args).stdout == _run_subprocess(args).stdout


def test_seed_env_var_is_ignored():
    # The random states come from DEFAULT_SEED alone; YBG_SEED is not read.
    args = ["verify", "schrodinger", "--sign", "-"]
    unset = _run_subprocess(args)
    assert unset.returncode == 0
    for value in ("7", "-1"):
        child = _run_subprocess(args, env={"YBG_SEED": value})
        assert (child.returncode, child.stdout, child.stderr) == (
            unset.returncode, unset.stdout, unset.stderr
        )


def _strict_json(text):
    def reject(constant):
        raise ValueError(f"non-standard JSON constant {constant}")

    return json.loads(text, parse_constant=reject)


def test_verify_qybe_default_stdout_golden(capsys):
    code, out, _ = run_cli(["verify", "qybe"], capsys)
    assert code == 0
    assert out == VERIFY_QYBE_GOLDEN


def test_sweep_qybe_x_row_bit_identical_to_oracle(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "qybe", "--param", "x", "--from", "-3", "--to", "3",
            "--steps", "4096", "--sign", "-", "--phi", "1.3", "--y", "0.7",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    q = np.exp(-1j * 1.3)
    family = lambda t: build_R_x("-", q, t)
    expected = [qybe_point(family, v, 0.7) for v in report["values"]]
    assert len(expected) == 4096
    assert np.array_equal(report["results"], expected)


def _verify_qybe_oracle(sign, grid, phi_grid):
    """verify qybe's residuals in its order (sign, phi, then x-major), one
    point at a time, each in a one-point call (qybe_point): a point's
    bits must not depend on the block it runs in. tests/test_yangbaxter.py
    checks the kernel itself against np.kron oracles."""
    values = [2.0 * k / grid for k in range(1, grid + 1)]
    results = []
    for s in [sign] if sign else ["+", "-"]:
        for phi in [2.0 * math.pi * k / phi_grid for k in range(phi_grid)]:
            q = np.exp(-1j * phi)
            family = lambda t, s=s, q=q: build_R_x(s, q, t)
            results.extend(qybe_point(family, x, y) for x in values for y in values)
    return np.array(results)


# Grids below, at and above one 8 x 8 tile, and grids whose last row and
# column of tiles are clipped.
@pytest.mark.parametrize("sign", ["+", "-"], ids=["plus", "minus"])
@pytest.mark.parametrize("phi_grid", [1, 3], ids=lambda n: f"phi{n}")
@pytest.mark.parametrize("grid", [1, 3, 7, 8, 9, 13, 17, 40], ids=lambda n: f"grid{n}")
def test_verify_qybe_tiles_bit_identical_to_oracle(grid, phi_grid, sign):
    results, label = ybgates.cli._verify_qybe(sign, grid, phi_grid)
    expected = _verify_qybe_oracle(sign, grid, phi_grid)
    assert results.shape == (phi_grid * grid * grid,)
    assert results.tobytes() == expected.tobytes()
    last_phi = 2.0 * math.pi * (phi_grid - 1) / phi_grid
    assert label(len(results) - 1) == f"sign={sign} phi={last_phi} x=2.0 y=2.0"


def _phis(n):
    return [2.0 * math.pi * k / n for k in range(n)]


@pytest.mark.parametrize(
    "relation, flags, axes",
    [
        ("braid", {"sign": None, "phi_grid": 5}, [("phi", _phis(5))]),
        (
            "unitarity",
            {"sign": "+", "grid": 6, "phi_grid": 3},
            [("phi", _phis(3)), ("x", np.linspace(-3.0, 3.0, 6).tolist())],
        ),
        (
            "qybe",
            {"sign": None, "grid": 3, "phi_grid": 2},
            [("phi", _phis(2)), ("x", [2.0 / 3, 4.0 / 3, 2.0]), ("y", [2.0 / 3, 4.0 / 3, 2.0])],
        ),
    ],
    ids=["braid", "unitarity", "qybe"],
)
def test_verify_labels_every_point_in_nested_loop_order(relation, flags, axes):
    results, label = ybgates.cli._RELATIONS[relation][0](**flags)
    signs = [flags["sign"]] if flags["sign"] else ["+", "-"]
    expected = [f"sign={s}" for s in signs]
    for name, values in axes:  # each axis inside the ones before it
        expected = [f"{point} {name}={v!r}" for point in expected for v in values]
    assert [label(k) for k in range(len(results))] == expected


# Step counts that end in a partial kernel chunk (2, 65 and 131) or in a
# second block of one point (257).
@pytest.mark.parametrize("steps", [2, 65, 131, 257], ids=lambda n: f"steps{n}")
def test_sweep_qybe_x_partial_block_bit_identical_to_oracle(steps, capsys):
    code, out, _ = run_cli(
        [
            "sweep", "qybe", "--param", "x", "--from", "-2.5", "--to", "4",
            "--steps", str(steps), "--sign", "+", "--phi", "0.4", "--y", "-1.3",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    family = lambda t: build_R_x("+", np.exp(-1j * 0.4), t)
    expected = np.array([qybe_point(family, v, -1.3) for v in report["values"]])
    assert len(expected) == steps
    assert np.array(report["results"]).tobytes() == expected.tobytes()


def test_sweep_qybe_phi_row_bit_identical_to_oracle(capsys):
    code, out, _ = run_cli(
        [
            "sweep", "qybe", "--param", "phi", "--from", "0.3", "--to", "5",
            "--steps", "4096", "--sign", "+", "--x", "-2.9", "--y", "2.1",
        ],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    expected = [
        qybe_point(lambda t: build_R_x("+", np.exp(-1j * v), t), -2.9, 2.1)
        for v in report["values"]
    ]
    assert len(expected) == 4096
    assert np.array_equal(report["results"], expected)


@pytest.mark.filterwarnings("ignore:.*encountered:RuntimeWarning")
def test_sweep_nonfinite_result_fails(capsys):
    # The grid is finite, but 1e200 overflows the 8x8 products: the old
    # max() skipped the NaNs and passed. (A --to of 1e308 overflows the
    # grid itself and is a usage error; see test_sweep_grid_overflow_*.)
    code, out, _ = run_cli(
        ["sweep", "qybe", "--param", "x", "--from", "1", "--to", "1e200", "--steps", "3"],
        capsys,
    )
    assert code == 1
    report = _strict_json(out)
    assert report["pass"] is False
    assert report["nonfinite"] == 2
    assert report["results"] == [0.0, None, None]
    assert report["max_value"] is None


def test_sweep_finite_report_has_no_nonfinite_key(capsys):
    code, out, _ = run_cli(
        ["sweep", "qybe", "--param", "x", "--from", "0", "--to", "2", "--steps", "5"],
        capsys,
    )
    assert code == 0
    assert "nonfinite" not in json.loads(out)


def test_verify_braid_matrix_file_matches_kron_oracle_within_bound(tmp_path, capsys):
    # A dense matrix takes the dense path tables. Two evaluations of the
    # residual differ by at most 2 gamma_16 times the largest entry of
    # |A||B||C| of each side, summed (Higham, 2002, section 3.1).
    m = np.random.default_rng(1).standard_normal((4, 4, 2)).view(complex)[..., 0]
    path = tmp_path / "dense.json"
    path.write_text(MatrixDocument.from_matrix(m).to_json())
    code, out, _ = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 1
    i2 = np.eye(2)
    left, right = np.kron(m, i2), np.kron(i2, m)
    kron = np.max(np.abs(left @ right @ left - right @ left @ right))
    left, right = np.abs(left), np.abs(right)
    gamma_16 = 16 * 2.0**-53 / (1 - 16 * 2.0**-53)
    bound = 2 * gamma_16 * ((left @ right @ left).max() + (right @ left @ right).max())
    assert abs(json.loads(out)["max_residual"] - kron) <= bound


# A literal matrix outside the eight-vertex pattern, so the dense path
# tables run; the same text is written in CI's three-kernel stdout step.
DENSE_DOCUMENT = (
    '{"dim": 4, "data": [[0.3, -1.1], [0.7, 0.2], [-0.4, 0.9], [1.3, 0.0], '
    "[0.0, 0.6], [-1.2, 0.5], [0.8, -0.3], [0.1, 1.4], [0.9, 0.9], [0.2, -0.7], "
    "[1.1, 0.4], [-0.6, -0.2], [-0.5, 0.3], [0.4, 0.0], [0.6, -1.3], [1.0, 0.8]]}"
)


def test_verify_braid_dense_matrix_file_stdout_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "dense.json").write_text(DENSE_DOCUMENT)
    code, out, err = run_cli(["verify", "braid", "--matrix-file", "dense.json"], capsys)
    assert (code, err) == (1, "")
    assert out == (
        '{"command": "verify", "max_residual": 9.850055279032702, "pass": false, '
        '"points": 1, "relation": "braid", "tol": 1e-12, "worst": "file=dense.json"}\n'
    )


def test_verify_nonfinite_matrix_file_fails(tmp_path, capsys):
    path = tmp_path / "nan.json"
    data = [[1.0, 0.0]] * 16
    data[5] = [float("nan"), 0.0]
    path.write_text(json.dumps({"dim": 4, "data": data}))
    code, out, _ = run_cli(["verify", "braid", "--matrix-file", str(path)], capsys)
    assert code == 1
    report = _strict_json(out)
    assert report["pass"] is False
    assert report["nonfinite"] == 1
    assert report["max_residual"] is None


def test_verify_matrix_file_integer_past_the_range_reads_as_infinity(tmp_path, monkeypatch, capsys):
    # 1 followed by 400 zeros, written as a JSON integer or as 1e400, is
    # the same number: both read as inf, and the check fails with exit 1.
    # So does an integer of 5000 digits, past Python's int-from-str limit.
    monkeypatch.chdir(tmp_path)
    data = json.dumps([[1.0 if k % 5 == 0 else 0.0, 0.0] for k in range(16)])
    reports = []
    spellings = (("int.json", "1" + "0" * 400), ("exp.json", "1e400"), ("long.json", "9" * 5000))
    for name, spelling in spellings:
        (tmp_path / name).write_text(f'{{"dim": 4, "data": {data.replace("1.0", spelling, 1)}}}')
        code, out, err = run_cli(["verify", "braid", "--matrix-file", name], capsys)
        assert (code, err) == (1, "")
        report = _strict_json(out)
        assert report.pop("worst") == f"file={name}"
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]
    assert reports[0]["nonfinite"] == 1 and reports[0]["max_residual"] is None


def _patch_qybe(monkeypatch, results):
    """Make the CLI's QYBE kernel return the 64 ``results``, x-major, for
    the one 64-point block of a --grid 8 square, on its one phi."""
    def fake(r_x, r_y, r_xy):
        assert r_x.shape == r_y.shape == r_xy.shape == (64, 4, 4) and len(results) == 64
        return np.array(results, dtype=float)

    monkeypatch.setattr(ybgates.cli, "qybe_residuals", fake)


def _verify_one_grid(capsys):
    # grid 8 is 64 points, one block; values are 0.25, 0.5, ..., 2.0.
    return run_cli(
        ["verify", "qybe", "--sign", "+", "--phi-grid", "1", "--grid", "8"], capsys
    )


def test_verify_qybe_nonfinite_points_fail(monkeypatch, capsys):
    results = [0.0] * 64
    results[10] = math.nan  # x-major: x = values[1], y = values[2]
    results[20] = math.inf
    results[30] = 1.0
    _patch_qybe(monkeypatch, results)
    code, out, _ = _verify_one_grid(capsys)
    assert code == 1
    report = _strict_json(out)
    assert report["nonfinite"] == 2
    assert report["max_residual"] is None
    assert report["worst"] == "sign=+ phi=0.0 x=0.5 y=0.75"


def test_verify_qybe_worst_is_first_maximum_x_major(monkeypatch, capsys):
    results = [0.0] * 64
    results[11] = results[3] = 1e-12  # ties: index 3 is x=0.25, y=1.0
    _patch_qybe(monkeypatch, results)
    code, out, _ = _verify_one_grid(capsys)
    assert code == 0
    report = json.loads(out)
    assert report["worst"] == "sign=+ phi=0.0 x=0.25 y=1.0"
    assert report["max_residual"] == 1e-12


def test_verify_qybe_all_zero_worst_is_first_point(monkeypatch, capsys):
    _patch_qybe(monkeypatch, [0.0] * 64)
    code, out, _ = _verify_one_grid(capsys)
    assert code == 0
    assert json.loads(out)["worst"] == "sign=+ phi=0.0 x=0.25 y=0.25"


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "qybe", "--grid", "0"],
        ["verify", "unitarity", "--grid", "-4"],
        ["verify", "braid", "--phi-grid", "0"],
        ["verify", "qybe", "--tol", "nan"],
        ["verify", "braid", "--tol", "inf"],
        # verify has no --step: an unknown argument.
        ["verify", "schrodinger", "--step", "1e-3"],
        ["synthesize", "theorem1", "--tol", "nan"],
        ["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
         "--tol", "-inf"],
        # 7 PiB of grid: no 64-bit address space can hold it.
        ["sweep", "braid", "--param", "phi", "--from", "0", "--to", "1",
         "--steps", "1000000000000000"],
        ["verify", "exponential", "--phi-grid", "-2"],
        ["sweep", "unitarity", "--param", "x", "--from", "nan", "--to", "1", "--steps", "3"],
        # A NaN or infinite number names no member of a family: every float
        # flag of every command refuses one in the parser (or, for --q, in
        # _parse_q) before anything is built.
        ["matrix", "Rx", "--sign", "+", "--q", "1", "--x", "nan"],
        ["matrix", "b", "--sign", "-", "--q", "nan"],
        ["matrix", "Rtheta", "--sign", "+", "--phi", "nan", "--theta", "0.2"],
        ["synthesize", "evolution", "--phi", "nan"],
        ["synthesize", "evolution", "--theta", "nan"],
        ["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3",
         "--phi", "nan"],
        ["sweep", "concurrence", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--theta", "nan"],
        ["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3",
         "--phi", "inf"],
        ["sweep", "concurrence", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--theta", "inf"],
        ["synthesize", "evolution", "--phi", "inf"],
        ["synthesize", "evolution", "--theta", "-inf"],
        ["matrix", "U", "--sign", "+", "--phi", "1", "--theta", "inf"],
        ["matrix", "Rtheta", "--sign", "-", "--phi", "1", "--theta", "-inf"],
        ["matrix", "b", "--sign", "+", "--q", "1,inf"],
        ["matrix", "Hx", "--sign", "+", "--phi", "0", "--x", "-inf"],
        ["sweep", "unitarity", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--x", "nan"],
        ["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
         "--y", "nan"],
        ["sweep", "braid", "--param", "phi", "--from", "0", "--to", "inf", "--steps", "3"],
        # No residual is below a tolerance of zero or less.
        ["verify", "braid", "--tol", "-1"],
        ["verify", "braid", "--tol", "0"],
        ["verify", "qybe", "--tol", "-0.0"],
        ["synthesize", "theorem1", "--tol", "0"],
        ["synthesize", "evolution", "--tol", "-1e-300"],
        ["sweep", "braid", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--tol", "0"],
        ["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
         "--tol", "-5e-324"],
    ],
)
def test_bad_arguments_rejected_before_computing(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    for flag, value in zip(args, args[1:]):
        if {"nan", "inf", "-inf"} & set(value.split(",")):
            assert flag in err and repr(value) in err, err
        elif flag == "--tol":
            assert f"argument --tol: must be positive, got {value!r}" in err, err


def test_no_option_parses_a_bare_float():
    # float() takes 'nan' and 'inf'; every number flag goes through
    # _finite_float instead (--tol through _positive_float, which calls
    # it), so that the parser refuses them.
    parser = ybgates.cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    numbers = 0
    for name, command in commands.choices.items():
        for action in command._actions:
            assert action.type is not float, (name, action.option_strings)
            numbers += action.type in (ybgates.cli._finite_float, ybgates.cli._positive_float)
    # The walk found every number flag: --tol of verify; --phi, --theta and
    # --x of matrix; --phi, --theta and --tol of synthesize; and --from,
    # --to, --phi, --theta, --x, --y and --tol of sweep.
    assert numbers == 14


def test_arithmetic_error_is_usage_error(capsys):
    # rho overflows on x = 1e308.
    code, out, err = run_cli(
        ["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1e308", "--steps", "3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("relation", ["qybe", "unitarity", "schrodinger", "exponential"])
def test_matrix_file_refused_outside_braid(relation, capsys):
    code, out, err = run_cli(["verify", relation, "--matrix-file", "/nonexistent"], capsys)
    assert code == 2
    assert out == ""
    assert "only braid accepts --matrix-file" in err


@pytest.mark.parametrize(
    "args",
    [
        # Finite flags whose matrix overflows: 2x and 1/q are infinite.
        ["matrix", "Rx", "--sign", "+", "--q", "1", "--x", "1e308"],
        ["matrix", "b", "--sign", "-", "--q", "1e-320"],
        ["matrix", "Rx", "--sign", "-", "--q", "1", "--x", "-1e308"],
        ["matrix", "b", "--sign", "+", "--q", "1e-320"],
        ["matrix", "b", "--sign", "-", "--q", "0,1e-320"],
        ["matrix", "Rx", "--sign", "+", "--q", "1e-320", "--x", "1"],
    ],
    ids=[
        "Rx + x=1e308",
        "b - q=1e-320",
        "Rx - x=-1e308",
        "b + q=1e-320",
        "b - q=0,1e-320",
        "Rx + q=1e-320",
    ],
)
def test_nonfinite_matrix_fails_with_empty_stdout(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out) == (2, "")
    assert err == f"error: the {args[1]} matrix at these parameters has non-finite entries\n"


def test_matrix_hx_overflow_names_x(capsys):
    # 1 + x^2 overflows past about 1.34e154, where H's entries would print
    # as zeros; at 1e154 they are about 1e-308.
    args = ["matrix", "Hx", "--sign", "+", "--phi", "0", "--x"]
    code, out, err = run_cli([*args, "1.4e154"], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1
    assert "x=1.4e+154" in err
    code, out, _ = run_cli([*args, "1e154"], capsys)
    assert code == 0 and json.loads(out)["data"][3] == [0.0, -1e-308]


@pytest.mark.parametrize("param", ["theta", "phi"])
def test_sweep_concurrence_nan_gate_is_usage_error(param, capsys):
    # A NaN angle names no gate: the parser refuses it before any is built.
    other = "--phi" if param == "theta" else "--theta"
    code, out, err = run_cli(
        ["sweep", "concurrence", "--param", param, "--from", "0", "--to", "1",
         "--steps", "3", other, "nan"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.endswith(f"error: argument {other}: must be finite, got 'nan'\n"), err


def test_document_json_refuses_nonfinite_entries():
    doc = MatrixDocument.from_matrix(np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(ValueError):
        doc.to_json()


@pytest.mark.parametrize(
    "bounds",
    [
        ["--from", "nan", "--to", "1"],
        ["--from", "0", "--to", "inf"],
        ["--from", "-inf", "--to", "1"],
        ["--from", "1", "--to", "1e308"],
        ["--from", "-1e308", "--to", "1e308"],
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_grid_overflow_and_nonfinite_bounds_rejected(bounds, fmt, tmp_path, capsys):
    out_file = tmp_path / "report"
    code, out, err = run_cli(
        ["sweep", "qybe", "--param", "x", *bounds, "--steps", "3", "--format", fmt,
         "--out", str(out_file)],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert not out_file.exists()


def test_arithmetic_error_in_finite_grid_is_usage_error(capsys):
    # The grid holds 1e200, but rho overflows on it.
    code, out, err = run_cli(
        ["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1e200", "--steps", "3"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("args", list(RELATION_GOLDEN), ids=" ".join)
def test_verify_relation_stdout_golden(args, capsys):
    code, out, err = run_cli(list(args), capsys)
    assert (code, out) == RELATION_GOLDEN[args]
    assert err == ""


def _sweep_report(args, capsys):
    code, out, _ = run_cli(args, capsys)
    assert code == 0
    return json.loads(out)


def test_sweep_unitarity_x_row_bit_identical_to_oracle(capsys):
    report = _sweep_report(
        ["sweep", "unitarity", "--param", "x", "--from", "-3", "--to", "3",
         "--steps", "997", "--sign", "+", "--phi", "2.2"],
        capsys,
    )
    expected = [
        float(unitarity_residuals(build_R_x_normalized("+", 2.2, v))) for v in report["values"]
    ]
    assert len(expected) == 997
    assert np.array_equal(report["results"], expected)


def test_sweep_unitarity_phi_row_bit_identical_to_oracle(capsys):
    # x = -0.3987991964982853 is a point where numpy's square differs from
    # the per-point rho.
    x = -0.3987991964982853
    report = _sweep_report(
        ["sweep", "unitarity", "--param", "phi", "--from", "0", "--to", "6.3",
         "--steps", "997", "--x", repr(x)],
        capsys,
    )
    expected = [
        float(unitarity_residuals(build_R_x_normalized("-", v, x))) for v in report["values"]
    ]
    assert np.array_equal(report["results"], expected)


def test_sweep_braid_phi_row_bit_identical_to_oracle(capsys):
    report = _sweep_report(
        ["sweep", "braid", "--param", "phi", "--from", "-1", "--to", "7",
         "--steps", "997", "--sign", "+"],
        capsys,
    )
    expected = [float(braid_residuals(build_b_phi("+", v))) for v in report["values"]]
    assert np.array_equal(report["results"], expected)


def test_overflow_input_writes_one_error_line_and_no_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "ybgates", "sweep", "unitarity", "--param", "x",
         "--from", "0", "--to", "1e200", "--steps", "3"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: --from/--to: "), proc.stderr


def test_numpy_warnings_silenced_in_process(capsys):
    # 1e200 is finite, but its 8x8 products overflow.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["sweep", "qybe", "--param", "x", "--from", "1", "--to", "1e200", "--steps", "3"],
            capsys,
        )
    assert code == 1
    assert _strict_json(out)["nonfinite"] == 2
    assert err == ""


@pytest.mark.parametrize(
    "args, names",
    [
        (["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1e200", "--steps", "3"],
         ["--from/--to", "x=5e+199"]),
        (["sweep", "unitarity", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
          "--x", "1e200"], ["--x 1e+200"]),
        (["sweep", "unitarity", "--param", "x", "--from", "1e200", "--to", "0", "--steps", "3"],
         ["--from/--to", "x=1e+200"]),
        (["sweep", "unitarity", "--param", "x", "--sign", "+", "--from", "0", "--to", "1e200",
          "--steps", "3"], ["--from/--to", "x=5e+199"]),
        (["sweep", "unitarity", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
          "--x", "-1e200"], ["--x -1e+200"]),
        (["sweep", "unitarity", "--param", "x", "--from", "-1e200", "--to", "1e200",
          "--steps", "3"], ["--from/--to", "x=-1e+200"]),
        (["sweep", "unitarity", "--param", "x", "--from", "-1e200", "--to", "0", "--steps", "3"],
         ["--from/--to", "x=-1e+200"]),
    ],
    ids=[
        "x-to-1e200",
        "phi-x-1e200",
        "x-from-1e200",
        "x-sign-plus-to-1e200",
        "phi-x-minus-1e200",
        "x-from-minus-1e200-to-1e200",
        "x-from-minus-1e200",
    ],
)
def test_arithmetic_errors_name_the_argument(args, names, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    for name in names:
        assert name in err


def test_parser_built_once_and_not_at_import():
    assert ybgates.cli._build_parser() is ybgates.cli._build_parser()
    probe = (
        "import ybgates.cli as c; n = c._build_parser.cache_info().currsize; "
        "c.main(['verify', 'braid', '--phi-grid', '2']); "
        "c.main(['verify', 'braid', '--phi-grid', '2']); "
        "print(n, c._build_parser.cache_info().currsize)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 1"


def test_cached_parser_gives_fresh_namespaces(capsys):
    # A reused parser must not carry one call's flags into the next.
    assert run_cli(["verify", "braid", "--sign", "+", "--tol", "1e-17"], capsys)[0] == 1
    code, out, _ = run_cli(["verify", "braid"], capsys)
    assert (code, out) == RELATION_GOLDEN[("verify", "braid")]


@pytest.mark.parametrize(
    "relation, kernel, points, worst",
    [
        ("braid", "braid_residuals", 64, "sign=+ phi=0.19634954084936207"),
        ("unitarity", "unitarity_residuals", 976, "sign=+ phi=0.0 x=-2.9"),
        ("schrodinger", "schrodinger_residuals", 96, "sign=+ phi=0.0 x=0.4 state=1"),
    ],
)
def test_verify_picks_every_nonfinite_point(monkeypatch, capsys, relation, kernel, points, worst):
    # Flat entries 1 and 2 of the first kernel call are made NaN and inf.
    real = getattr(ybgates.cli, kernel)
    calls = []

    def poisoned(*args, **kwargs):
        out = np.array(real(*args, **kwargs))
        if not calls:
            out.flat[[1, 2]] = [math.nan, math.inf]
        calls.append(out.size)
        return out

    monkeypatch.setattr(ybgates.cli, kernel, poisoned)
    code, out, _ = run_cli(["verify", relation], capsys)
    assert code == 1
    report = _strict_json(out)
    assert report["points"] == points
    assert report["nonfinite"] == 2
    assert report["max_residual"] is None
    assert report["worst"] == worst


def test_verify_exponential_picks_first_maximum_in_order(monkeypatch, capsys):
    # Every residual ties at zero: the worst is the first point, R before U.
    monkeypatch.setattr(
        ybgates.cli, "residuals", lambda a, b: np.zeros(np.shape(a)[:-2])
    )
    monkeypatch.setattr(ybgates.cli, "residual", lambda a, b: 0.0)
    code, out, _ = run_cli(["verify", "exponential"], capsys)
    assert code == 0
    report = json.loads(out)
    assert report["points"] == 289
    assert report["worst"] == "R sign=+ phi=0.0 theta=0.0"


@pytest.mark.parametrize(
    "value",
    [-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310, -1.5e-315],
)
def test_document_round_trip_signed_zero_and_subnormals(value):
    matrix = np.full((2, 2), complex(value, -value))
    matrix[0, 1] = complex(-0.0, value)
    doc = MatrixDocument.from_matrix(matrix)
    again = MatrixDocument.from_json(doc.to_json())
    assert again.to_matrix().tobytes() == matrix.tobytes()
    assert np.signbit(again.to_matrix().real).tolist() == np.signbit(matrix.real).tolist()
    assert again.to_json() == doc.to_json()


def _schrodinger_states():
    """The eight unit states of verify schrodinger, drawn one at a time."""
    rng = np.random.default_rng(DEFAULT_SEED)
    states = []
    for _ in range(8):
        v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        states.append(v / np.linalg.norm(v))
    return np.array(states)


def _relation_oracle(relation):
    """Per-point residuals of a relation at its default grid, in verify order."""
    phis = [2.0 * math.pi * k / 8 for k in range(8)]
    if relation == "qybe":
        values = [2.0 * k / 16 for k in range(1, 17)]
        return [
            qybe_point(lambda t: build_R_x(sign, np.exp(-1j * phi), t), x, y)
            for sign in "+-"
            for phi in phis
            for x in values
            for y in values
        ]
    if relation == "braid":
        return [
            float(braid_residuals(build_b_phi(sign, 2.0 * math.pi * k / 32)))
            for sign in "+-"
            for k in range(32)
        ]
    if relation == "unitarity":
        return [
            float(unitarity_residuals(build_R_x_normalized(sign, phi, float(x))))
            for sign in "+-"
            for phi in phis
            for x in np.linspace(-3.0, 3.0, 61)
        ]
    if relation == "schrodinger":
        states = _schrodinger_states()
        return [
            float(schrodinger_residuals(sign, phi, [psi0], x, h=1e-5)[0])
            for sign in "+-"
            for phi in (0.0, math.pi / 3.0)
            for x in (0.4, 1.0, 2.0)
            for psi0 in states
        ]
    return _exponential_points(None, 8)


@pytest.mark.parametrize(
    "relation", ["braid", "unitarity", "schrodinger", "exponential", "qybe"]
)
def test_verify_residuals_bit_identical_to_per_point_oracle(relation, monkeypatch, capsys):
    seen = []
    real = ybgates.cli._picks

    def record(results, label):
        seen.append(np.array(results))
        return real(results, label)

    monkeypatch.setattr(ybgates.cli, "_picks", record)
    code, _, _ = run_cli(["verify", relation], capsys)
    assert code == 0
    assert len(seen) == 1
    assert np.array_equal(seen[0], _relation_oracle(relation))


def _square(m):
    # m m for one 4x4 matrix, each entry summed over k left to right.
    terms = [np.outer(m[:, k], m[k, :]) for k in range(4)]
    return terms[0] + terms[1] + terms[2] + terms[3]


def _exponential_points(sign, phi_grid):
    # verify exponential's rows one point at a time, from the per-point
    # functions: exp(i (pi/2 - 2 theta) H), written out here in closed form,
    # against build_R_theta, then the worse of evolution_U's doubling law and
    # its anchor U(pi) = -i Sigma, and last the fixed row.
    out = []
    for s in [sign] if sign else ["+", "-"]:
        for k in range(phi_grid):
            phi = 2.0 * math.pi * k / phi_grid
            anchor = residual(evolution_U(s, phi, math.pi), -1j * interaction_operator(s, phi))
            for theta in np.linspace(0.0, 2.0 * math.pi, 9).tolist():
                u = math.pi / 4.0 - theta
                from_h = math.cos(u) * np.eye(4) + 2j * math.sin(u) * hamiltonian_const(s, phi)
                out.append(residual(from_h, build_R_theta(s, phi, theta)))
                half = evolution_U(s, phi, theta / 2.0)
                out.append(max(residual(_square(half), evolution_U(s, phi, theta)), anchor))
    xy = kron(SIGMA_X, SIGMA_Y)
    quarter_turn = math.cos(math.pi / 4.0) * np.eye(4) + 1j * math.sin(math.pi / 4.0) * xy
    fixed = residual(build_b_phi("-", 0.0), quarter_turn)
    return np.array(out + [max(fixed, residual(_square(xy), np.eye(4)))])


def _schrodinger_loop(sign):
    # One kernel call per (sign, phi, x), as before the runner batched them.
    states = _schrodinger_states()
    return np.concatenate(
        [
            schrodinger_residuals(s, phi, states, x)
            for s in ([sign] if sign else ["+", "-"])
            for phi in (0.0, math.pi / 3.0)
            for x in (0.4, 1.0, 2.0)
        ]
    )


@pytest.mark.parametrize("sign", [None, "+", "-"])
@pytest.mark.parametrize("phi_grid", [1, 3, 8, 13])
def test_verify_exponential_bit_identical_to_per_phi_loop(sign, phi_grid):
    results, _ = ybgates.cli._verify_exponential(sign, phi_grid)
    assert results.tobytes() == _exponential_points(sign, phi_grid).tobytes()


# Each mutant of verify exponential's closed forms: the name it replaces in
# every ybgates module that binds it, the mutant made from the original,
# and the residual it must raise the report to.
_EXPONENTIAL_MUTANTS = {
    # exp(+i theta Sigma / 2) still doubles, but its U(pi) is +i Sigma.
    "evolution-sign": ("evolution_form", lambda real: lambda op, t: real(-op, t), 2.0),
    # theta for theta/2: exp(-i theta Sigma) still doubles, but its U(pi) is -I.
    "evolution-half-angle": ("evolution_form", lambda real: lambda op, t: real(op, 2 * t), 1.0),
    # A Sigma 0.1 % off an involution: U(theta/2)^2 misses U(theta).
    "sigma-scaled": ("interaction_operator", lambda real: lambda s, p: 1.001 * real(s, p), 2e-3),
    # exp(-i pi/4 G) in place of exp(i pi/4 G).
    "quarter-turn-sign": ("_quarter_turn", lambda real: lambda g: real(-g), 1.0),
    # R(-theta) for R(theta): the R row's two sides part by up to sqrt(2).
    "angle-form-sign": ("angle_form", lambda real: lambda b, t: real(b, -t), 1.414),
    # exp(-i (pi/2 - 2 theta) H) for exp(i (pi/2 - 2 theta) H): up to 2.
    "r-from-h-sign": ("r_from_h_form", lambda real: lambda h, t: real(-h, t), 2.0),
}


@pytest.mark.parametrize("mutant", list(_EXPONENTIAL_MUTANTS))
def test_verify_exponential_fails_a_broken_closed_form(mutant, monkeypatch, capsys):
    name, mutate, floor = _EXPONENTIAL_MUTANTS[mutant]
    modules = (ybgates.cli, ybgates.gates, ybgates.hamiltonian)
    broken = mutate(getattr(ybgates.cli, name))
    for module in modules:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, broken)
    code, out, _ = run_cli(["verify", "exponential"], capsys)
    report = json.loads(out)
    assert (code, report["pass"]) == (1, False)
    assert report["max_residual"] > 0.9 * floor


@pytest.mark.parametrize("sign", [None, "+", "-"])
def test_verify_schrodinger_bit_identical_to_per_point_calls(sign):
    results, _ = ybgates.cli._verify_schrodinger(sign)
    assert results.tobytes() == _schrodinger_loop(sign).tobytes()


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "unitarity", "--param", "x", "--from", "-1.0087657831281405e-05",
         "--to", "0.17617500917055973", "--steps", "61", "--sign", "-", "--phi", "5.1"],
        ["sweep", "qybe", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--x", "-2E-7", "--y", "-.5"],
        ["matrix", "b", "--sign", "-", "--q", "-1e-3,-2e-5"],
    ],
    ids=["from-exponent", "x-capital-exponent-y-leading-dot", "q-pair"],
)
def test_negative_numbers_in_any_notation_are_values(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert err == ""
    _strict_json(out)


def test_negative_infinity_is_refused_as_a_value(capsys):
    code, out, err = run_cli(["verify", "braid", "--tol", "-inf"], capsys)
    assert code == 2
    assert out == ""
    assert "argument --tol: must be finite" in err


# sha256 of the stdout of 4096-step QYBE sweeps, pinned at the path kernel
# and the closed-form Baxterization; the same under every BLAS kernel.
SWEEP_QYBE_SHA256 = {
    ("x", "json"): "ab9c9cbc2e14219594db2181b9a225837e1c0867a27e74555ef7828da09a575d",
    ("phi", "json"): "643dd54e32b871b667360f310a38896e23ca2c0367cd79516c5f061e0e5e090f",
    ("x", "csv"): "c065f71b0934ab8758000e8247bf25942b73188a8828b11b46565f3345632aec",
    ("phi", "csv"): "c0085fbe3f9d4663ea14fc9cb511595719f91cb448906792e2fbcc7562606716",
}
_SWEEP_QYBE_ARGS = {
    "x": ["--from", "-3", "--to", "3", "--sign", "-", "--phi", "1.3", "--y", "0.7"],
    "phi": ["--from", "0.3", "--to", "5", "--sign", "+", "--x", "-2.9", "--y", "2.1"],
}


@pytest.mark.parametrize(
    "param, fmt", list(SWEEP_QYBE_SHA256), ids=["x-json", "phi-json", "x-csv", "phi-csv"]
)
def test_sweep_qybe_4096_step_stdout_golden(param, fmt, capsys):
    code, out, _ = run_cli(
        ["sweep", "qybe", "--param", param, "--steps", "4096", "--format", fmt,
         *_SWEEP_QYBE_ARGS[param]],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_QYBE_SHA256[param, fmt]


_QYBE_COMMANDS = [
    ["verify", "qybe", "--grid", "12", "--phi-grid", "2"],
    ["sweep", "qybe", "--param", "x", "--from", "-3", "--to", "3", "--steps", "200"],
    ["sweep", "qybe", "--param", "phi", "--from", "0", "--to", "6", "--steps", "200"],
]


def _refuse_everywhere(monkeypatch, name, real):
    """Make every loaded module's ``name`` that is ``real`` fail when called."""
    def refuse(*_args):
        raise AssertionError(f"{name} called on the QYBE path")

    for module in list(sys.modules.values()):
        if getattr(module, name, None) is real:
            monkeypatch.setattr(module, name, refuse)


@pytest.mark.parametrize("args", _QYBE_COMMANDS, ids=["verify", "sweep-x", "sweep-phi"])
def test_qybe_commands_never_call_kron(args, monkeypatch, capsys):
    _refuse_everywhere(monkeypatch, "kron", ybgates.linalg.kron)
    _refuse_everywhere(monkeypatch, "kron", np.kron)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("args", _QYBE_COMMANDS, ids=["verify", "sweep-x", "sweep-phi"])
def test_qybe_commands_never_call_lift_or_inverse(args, monkeypatch, capsys):
    # The path kernel gathers from 4x4 stacks, and R(x) is a closed form.
    _refuse_everywhere(monkeypatch, "inv", np.linalg.inv)
    _refuse_everywhere(monkeypatch, "det", np.linalg.det)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("args", _QYBE_COMMANDS, ids=["verify", "sweep-x", "sweep-phi"])
def test_qybe_commands_never_call_point_kernel(args, monkeypatch, capsys):
    # verify qybe and both sweep parameters hand each point of their grid,
    # as its (x, y, xy) matrices, to the path kernel exactly once, in calls
    # of at most max(_QYBE_BLOCK, len(y)) points.
    points, sizes = [], []
    real = ybgates.cli.qybe_residuals

    def spy(r_x, r_y, r_xy):
        sizes.append(len(r_x))
        points.extend(point.tobytes() for point in np.stack([r_x, r_y, r_xy], axis=1))
        return real(r_x, r_y, r_xy)

    monkeypatch.setattr(ybgates.cli, "qybe_residuals", spy)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    report = json.loads(out)
    assert report["pass"] is True
    assert len(set(points)) == len(points) == report.get("points", len(report.get("values", [])))
    len_y = int(args[args.index("--grid") + 1]) if "--grid" in args else 1
    assert 0 < max(sizes) <= max(ybgates.cli._QYBE_BLOCK, len_y)


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "qybe"],
        ["sweep", "qybe", "--param", "x", "--from", "-3", "--to", "3", "--steps", "4096"],
        ["sweep", "qybe", "--param", "phi", "--from", "0", "--to", "6", "--steps", "4096"],
    ],
    ids=["verify", "sweep-x", "sweep-phi"],
)
def test_qybe_4096_point_commands_make_16_kernel_calls_of_256_points(args, monkeypatch, capsys):
    # verify qybe at its defaults runs one block per (sign, phi), and a
    # 4096-step sweep 16 blocks, so the per-block set-up is paid 16 times.
    sizes = []
    real = ybgates.cli.qybe_residuals

    def spy(r_x, r_y, r_xy):
        sizes.append(len(r_x))
        return real(r_x, r_y, r_xy)

    monkeypatch.setattr(ybgates.cli, "qybe_residuals", spy)
    code, _, err = run_cli(args, capsys)
    assert code == 0, err
    assert sizes == [256] * 16


def test_verify_qybe_memory_does_not_grow_with_grid_squared(capsys):
    args = ["verify", "qybe", "--grid", "128", "--phi-grid", "1", "--sign", "+"]
    run_cli(args, capsys)  # first use: numpy's lazy set-up is not counted
    tracemalloc.start()
    try:
        code, _, _ = run_cli(args, capsys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    # The family at all 16384 products alone is 4.2 MB of 4x4 matrices;
    # the lifted 128-value table, one block and the residuals fit in 3 MB.
    assert peak < 3e6


def _cap_address_space():
    # 2 GiB: enough for numpy, and far too little for any grid below, so a
    # grid that the machine could allocate is never filled either.
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, hard))


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "braid", "--phi-grid", "10000000000000"],
        ["verify", "unitarity", "--grid", "2", "--phi-grid", "1000000000000"],
        ["verify", "exponential", "--phi-grid", "1000000000000"],
        ["verify", "qybe", "--grid", "10000000", "--phi-grid", "1", "--sign", "+"],
    ],
    ids=" ".join,
)
def test_unallocatable_verify_grid_exits_2_before_computing(args):
    # Under the cap, building such a grid point by point also fails, but
    # only after seconds of work and with an empty MemoryError message.
    proc = subprocess.run(
        [sys.executable, "-m", "ybgates", *args],
        capture_output=True,
        text=True,
        timeout=10,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0][len("error: "):].strip(), "the error line gives no reason"


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1",
         "--steps", "100000000"],
        ["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1",
         "--steps", "100000000"],
    ],
    ids=" ".join,
)
def test_sweep_out_of_memory_names_the_reason(args):
    # These grids fit under the cap, but the per-point Python floats behind
    # them do not: the MemoryError is raised with no message of its own.
    proc = subprocess.run(
        [sys.executable, "-m", "ybgates", *args],
        capture_output=True,
        text=True,
        timeout=60,
        preexec_fn=_cap_address_space,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
    assert lines[0][len("error: "):].strip(), "the error line gives no reason"


@pytest.mark.parametrize(
    "quantity, param", list(ybgates.cli._SWEEPS), ids=[f"{q}-{p}" for q, p in ybgates.cli._SWEEPS]
)
def test_sweep_default_tol_is_the_verify_tol(quantity, param, capsys):
    code, out, _ = run_cli(
        ["sweep", quantity, "--param", param, "--from", "0", "--to", "1", "--steps", "3"], capsys
    )
    assert code == 0
    tol = json.loads(out)["tol"]
    if quantity == "concurrence":
        assert tol is None
    else:
        code, out, _ = run_cli(["verify", quantity], capsys)
        assert code == 0
        assert tol == json.loads(out)["tol"]


@pytest.mark.parametrize(
    "args, message",
    [
        (["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
          "--theta", "1"], "--theta is not used by sweep qybe --param x"),
        (["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
          "--y", "5"], "--y is not used by sweep unitarity --param x"),
        (["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
          "--x", "0.5"], "--x is not used by sweep qybe --param x"),
        (["sweep", "concurrence", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
          "--phi", "0.5"], "--phi is not used by sweep concurrence --param phi"),
        (["verify", "schrodinger", "--grid", "3"], "--grid is not used by verify schrodinger"),
        (["verify", "exponential", "--grid", "5"], "--grid is not used by verify exponential"),
        (["verify", "braid", "--grid", "4"], "--grid is not used by verify braid"),
        (["verify", "schrodinger", "--phi-grid", "2"],
         "--phi-grid is not used by verify schrodinger"),
        (["verify", "braid", "--matrix-file", "/nonexistent", "--sign", "+"],
         "--sign is not used by verify braid --matrix-file"),
        (["matrix", "cnot", "--phi", "1", "--sign", "+", "--x", "3"],
         "--sign is not used by matrix cnot"),
        (["synthesize", "theorem1", "--phi", "2", "--theta", "1"],
         "--phi is not used by synthesize theorem1"),
        (["matrix", "H", "--sign", "+", "--phi", "1", "--x", "2"], "--x is not used by matrix H"),
        (["matrix", "b", "--sign", "+", "--q", "1", "--theta", "2"],
         "--theta is not used by matrix b"),
        # A concurrence is not a residual, and has no tolerance.
        (["sweep", "concurrence", "--param", "theta", "--from", "0", "--to", "1", "--steps", "3",
          "--tol", "1"], "--tol is not used by sweep concurrence --param theta"),
        (["sweep", "concurrence", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
          "--tol", "1"], "--tol is not used by sweep concurrence --param phi"),
    ],
)
def test_ignored_flags_are_usage_errors(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_FLAG_VALUES = {"sign": "+", "grid": "3", "phi_grid": "2"}


@pytest.mark.parametrize(
    "command, flags",
    [(["verify", name], entry[2]) for name, entry in ybgates.cli._RELATIONS.items()]
    + [(["verify", "braid"], {"matrix_file": None})]
    + [
        (["sweep", quantity, "--param", param, "--from", "0", "--to", "1", "--steps", "3"],
         entry[0])
        for (quantity, param), entry in ybgates.cli._SWEEPS.items()
    ]
    + [(["matrix", family], list(entry[0])) for family, entry in ybgates.cli._FAMILIES.items()]
    # A loose --tol: these cases check that the route reads its flags, not
    # that the flag values give CNOT.
    + [
        (["synthesize", route, "--tol", "4"], entry[0])
        for route, entry in ybgates.cli._ROUTES.items()
    ],
    ids=str,
)
def test_every_listed_flag_is_accepted(command, flags, tmp_path, capsys):
    path = tmp_path / "b.json"
    path.write_text(MatrixDocument.from_matrix(build_b_phi("-", 0.0)).to_json())
    args = list(command)
    for name in flags:
        value = str(path) if name == "matrix_file" else _FLAG_VALUES.get(name, "0.37")
        args += [f"--{name.replace('_', '-')}", value]
    code, _, err = run_cli(args, capsys)
    assert code == 0, err


def _subparsers():
    parser = ybgates.cli._build_parser()
    (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return commands.choices


def _table_entries():
    # Each subcommand's table entries: its arguments, its name in messages,
    # and the flags it reads.
    cli = ybgates.cli
    return {
        "verify": [([name], f"verify {name}", {*entry[2], "tol"})
                   for name, entry in cli._RELATIONS.items()]
        # --matrix-file makes braid check one file, an entry of its own.
        + [(["braid", "--matrix-file", "1"], "verify braid --matrix-file",
            {"matrix_file", "tol"})],
        "matrix": [([name], f"matrix {name}", set(entry[0]))
                   for name, entry in cli._FAMILIES.items()],
        "synthesize": [([name], f"synthesize {name}", {*entry[0], "tol"})
                       for name, entry in cli._ROUTES.items()],
        # A sweep's own parameter is set by --from and --to, so its flag,
        # like any flag not in its table entry, is refused.
        "sweep": [
            ([quantity, "--param", param, "--from", "0", "--to", "1", "--steps", "3"],
             f"sweep {quantity} --param {param}",
             {*entry[0], *(["tol"] if quantity in cli._RELATIONS else [])})
            for (quantity, param), entry in cli._SWEEPS.items()
        ],
    }


def _unused_flag_cases():
    # (args, message) for each optional flag a subparser declares, taken from
    # the parser's own actions, and each table entry that does not read it.

    # Flags that every sweep reads, whatever its table entry.
    read_by_all = {"param", "start", "stop", "steps", "format", "out"}
    cases = []
    for command, rows in _table_entries().items():
        for action in _subparsers()[command]._actions:
            if not action.option_strings or action.dest in {"help"} | read_by_all:
                continue
            flag = action.option_strings[0]
            for args, name, read in rows:
                if action.dest in read or name == "verify braid" and flag == "--matrix-file":
                    continue
                message = f"{flag} is not used by {name}"
                if command == "verify" and flag == "--matrix-file":
                    message = "only braid accepts --matrix-file"
                value = action.choices[0] if action.choices else "1"
                cases.append(pytest.param([command, *args, flag, value], message,
                                          id=f"{name} {flag}"))
    return cases


@pytest.mark.parametrize("args, message", _unused_flag_cases())
def test_every_unused_flag_is_refused(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert (code, out, err) == (2, "", f"error: {message}\n")


@pytest.mark.parametrize(
    "name, command",
    [pytest.param(name, command, id=f"{command} {name}")
     for name, (commands, _) in ybgates.cli._FLAGS.items() for command in commands.split()],
)
def test_every_declared_flag_is_read_by_an_entry(name, command):
    # The reverse of test_every_listed_flag_is_accepted: a subcommand
    # declares a table flag only if one of its table entries reads it.
    assert any(name in read for _, _, read in _table_entries()[command])


def _abbreviation_cases():
    # (base, argv) for each proper prefix of each long option of each parser,
    # taken from the parser's own actions, that is not an option itself; the
    # top-level parser's prefix goes before the subcommand.
    parsers = {"ybg": ybgates.cli._build_parser(), **_subparsers()}
    entries = {command: [command, *rows[0][0]] for command, rows in _table_entries().items()}
    cases = []
    for command, parser in parsers.items():
        base = entries.get(command, entries["verify"])
        options = parser._option_string_actions
        # A prefix of two options, such as sweep's --s, is one case.
        prefixes = {option[:end]: action for option, action in options.items()
                    if option.startswith("--") for end in range(3, len(option))}
        for prefix, action in prefixes.items():
            if prefix in options:
                continue
            value = [] if action.nargs == 0 else [action.choices[0] if action.choices else "1"]
            argv = [prefix, *value, *base] if command == "ybg" else [*base, prefix, *value]
            cases.append(pytest.param(base, argv, id=f"{command} {prefix}"))
    return cases


@pytest.mark.parametrize("base, argv", _abbreviation_cases())
def test_no_parser_reads_an_abbreviated_flag(base, argv, capsys):
    # Prefix matching read `verify braid --phi 3` as --phi-grid 3, and
    # `verify braid --he` printed help: each flag is read only as spelled.
    parser = ybgates.cli._build_parser()
    parser.parse_args(base)
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_abbreviated_flag_exits_2_with_empty_stdout(capsys):
    # A subcommand refuses its own leftovers, so its usage and name lead;
    # the top level's leftovers are the top level's.
    sweep = ["sweep", "braid", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3"]
    for argv, prog, flag in [
        (["verify", "braid", "--phi", "3"], "ybg verify", "--phi 3"),
        ([*sweep, "--step", "3"], "ybg sweep", "--step 3"),
        (["--bogus", "verify", "braid"], "ybg", "--bogus"),
    ]:
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"usage: {prog} ")
        assert err.endswith(f"\n{prog}: error: unrecognized arguments: {flag}\n")


@pytest.mark.parametrize("param", ["theta", "phi"])
@pytest.mark.parametrize("sign", ["+", "-"])
def test_sweep_concurrence_rows_bit_identical_to_per_point(param, sign, capsys):
    other = ["--phi", "2.2"] if param == "theta" else ["--theta", "0.3"]
    code, out, _ = run_cli(
        ["sweep", "concurrence", "--param", param, "--from", "-7", "--to", "7",
         "--steps", "333", "--sign", sign, *other],
        capsys,
    )
    assert code == 0
    report = json.loads(out)
    if param == "theta":
        expected = [concurrence(r_theta_action(sign, 2.2, v, 0)) for v in report["values"]]
    else:
        expected = [concurrence(r_theta_action(sign, v, 0.3, 0)) for v in report["values"]]
    assert np.array_equal(report["results"], expected)


@given(
    start=st.floats(-1e3, 1e3),
    stop=st.floats(-1e3, 1e3),
    steps=st.integers(2, 40),
)
def test_sweep_values_are_the_python_grid(start, stop, steps):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["sweep", "braid", "--param", "phi", "--from", repr(start),
                     "--to", repr(stop), "--steps", str(steps)])
    assert code == 0
    expected = [start + (stop - start) * k / (steps - 1) for k in range(steps)]
    assert json.loads(out.getvalue())["values"] == expected


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_is_usage_error_without_traceback(unbuffered):
    # The read end is closed before the child starts, so its write to
    # stdout fails with EPIPE whatever the timing; buffered, the write
    # happens only at the flush.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        child = subprocess.run(
            [sys.executable, "-m", "ybgates", "synthesize", "theorem1"],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
        )
    finally:
        os.close(write_end)
    assert child.returncode == 2
    assert child.stderr == b"error: stdout was closed before the output was written\n"


def test_readme_command_lines_exit_zero(capsys):
    # Every `ybg ...` line of the README's "Command line" code block.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [
        shlex.split(line.split("#", 1)[0])[1:]
        for line in block.splitlines()
        if line.startswith("ybg ")
    ]
    assert commands
    for args in commands:
        code, _, err = run_cli(args, capsys)
        assert code == 0, (args, err)


def test_readme_library_tour_runs():
    # The README's first python code block, the library tour, as written.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    tour = readme.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(tour, "README.md", "exec"), {})


@pytest.mark.parametrize("relation", list(ybgates.cli._RELATIONS))
def test_relation_runner_called_with_table_flags_by_keyword(relation, monkeypatch, capsys):
    # The runner, called with its table's flags by keyword, gives the very
    # residuals that `ybg verify <relation>` hands to _picks.
    seen = []
    real = ybgates.cli._picks

    def record(results, label):
        seen.append(np.array(results))
        return real(results, label)

    monkeypatch.setattr(ybgates.cli, "_picks", record)
    assert run_cli(["verify", relation], capsys)[0] == 0
    run, _, flags = ybgates.cli._RELATIONS[relation]
    results, _ = run(**flags)
    assert np.array_equal(results, seen[0])


@pytest.mark.parametrize(
    "command, flags, given",
    [
        (["verify", "qybe", "--grid", "3"], ybgates.cli._RELATIONS["qybe"][2], {"grid": 3}),
        (["verify", "schrodinger", "--sign", "-"], ybgates.cli._RELATIONS["schrodinger"][2],
         {"sign": "-"}),
        (["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
          "--y", "0.2"], ybgates.cli._SWEEPS[("qybe", "x")][0], {"y": 0.2}),
        (["synthesize", "evolution", "--theta", "1.5"], ybgates.cli._ROUTES["evolution"][0],
         {"theta": 1.5}),
    ],
    ids=["verify-qybe-grid", "verify-schrodinger-sign", "sweep-qybe-y", "synthesize-evolution-theta"],
)
def test_read_flags_returns_defaults_and_leaves_namespace(command, flags, given):
    args = ybgates.cli._build_parser().parse_args(command)
    before = dict(vars(args))
    assert ybgates.cli._read_flags(args, flags, "test") == {**flags, **given}
    assert vars(args) == before


def test_verify_qybe_picks_once_over_the_whole_grid(monkeypatch, capsys):
    seen = []
    real = ybgates.cli._picks

    def record(results, label):
        seen.append(len(results))
        return real(results, label)

    monkeypatch.setattr(ybgates.cli, "_picks", record)
    code, _, _ = run_cli(["verify", "qybe", "--grid", "4", "--phi-grid", "3"], capsys)
    assert code == 0
    assert seen == [2 * 3 * 4 * 4]
