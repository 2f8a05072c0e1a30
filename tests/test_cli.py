"""Command-line contract: exit codes, documents, determinism."""

import contextlib
import hashlib
import io
import json
import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ybgates.cli
import ybgates.linalg
from ybgates.cli import MatrixDocument, main
from ybgates.eightvertex import build_b_phi, build_R_theta, build_R_x, build_R_x_normalized
from ybgates.entangle import concurrence, r_theta_action
from ybgates.gates import cnot
from ybgates.hamiltonian import (
    R_from_H,
    evolution_U,
    interaction_operator,
    schrodinger_residual,
)
from ybgates.linalg import expm, kron, residual, unitarity_residual
from ybgates.paulis import DEFAULT_SEED, SIGMA_X, SIGMA_Y
from ybgates.yangbaxter import braid_residual

I2 = np.eye(2, dtype=complex)

# `ybg verify qybe` stdout at the per-point implementation the batched
# kernel replaced; the kernel must reproduce it byte for byte.
VERIFY_QYBE_GOLDEN = (
    '{"command": "verify", "max_residual": 7.105427357601002e-15, "pass": true, '
    '"points": 4096, "relation": "qybe", "tol": 1e-10, '
    '"worst": "sign=+ phi=5.497787143782138 x=2.0 y=2.0"}\n'
)

# Stdout of the four other relations at their per-point implementation,
# at the defaults and at a failing --tol with other flags, so a pick off
# the default grid is pinned too.
RELATION_GOLDEN = {
    ("verify", "braid"): (
        0,
        '{"command": "verify", "max_residual": 1.1443916996305594e-16, "pass": true, '
        '"points": 64, "relation": "braid", "tol": 1e-12, '
        '"worst": "sign=+ phi=1.9634954084936207"}\n',
    ),
    ("verify", "unitarity"): (
        0,
        '{"command": "verify", "max_residual": 6.661338147750939e-16, "pass": true, '
        '"points": 976, "relation": "unitarity", "tol": 1e-12, '
        '"worst": "sign=+ phi=2.356194490192345 x=-1.9"}\n',
    ),
    ("verify", "schrodinger"): (
        0,
        '{"command": "verify", "max_residual": 4.787642814084265e-11, "pass": true, '
        '"points": 96, "relation": "schrodinger", "tol": 1e-06, '
        '"worst": "sign=- phi=0.0 x=0.4 state=3"}\n',
    ),
    ("verify", "exponential"): (
        0,
        '{"command": "verify", "max_residual": 1.1102230246251565e-15, "pass": true, '
        '"points": 289, "relation": "exponential", "tol": 1e-12, '
        '"worst": "U sign=- phi=0.7853981633974483 theta=4.71238898038469"}\n',
    ),
    ("verify", "braid", "--sign", "+", "--phi-grid", "7", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 1.1443916996305594e-16, "pass": false, '
        '"points": 7, "relation": "braid", "tol": 1e-17, '
        '"worst": "sign=+ phi=0.8975979010256552"}\n',
    ),
    ("verify", "unitarity", "--sign", "-", "--grid", "7", "--phi-grid", "3", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 2.220446049250313e-16, "pass": false, '
        '"points": 21, "relation": "unitarity", "tol": 1e-17, '
        '"worst": "sign=- phi=0.0 x=0.0"}\n',
    ),
    ("verify", "schrodinger", "--sign", "+", "--step", "1e-3", "--tol", "1e-12"): (
        1,
        '{"command": "verify", "max_residual": 3.3632991434982635e-07, "pass": false, '
        '"points": 48, "relation": "schrodinger", "tol": 1e-12, '
        '"worst": "sign=+ phi=0.0 x=0.4 state=6"}\n',
    ),
    ("verify", "exponential", "--sign", "-", "--phi-grid", "3", "--tol", "1e-17"): (
        1,
        '{"command": "verify", "max_residual": 9.992007221626409e-16, "pass": false, '
        '"points": 55, "relation": "exponential", "tol": 1e-17, '
        '"worst": "U sign=- phi=0.0 theta=5.497787143782138"}\n',
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
    code, _, err = run_cli(
        ["matrix", "Rtheta", "--sign", "+", "--phi", "0", "--theta", "0.5", "--x", "1"],
        capsys,
    )
    assert code == 2
    assert "not both" in err


def test_matrix_rtheta_from_x(capsys):
    code, out, _ = run_cli(
        ["matrix", "Rtheta", "--sign", "+", "--phi", "0", "--x", "1"], capsys
    )
    assert code == 0
    doc = MatrixDocument.from_json(out)
    assert doc.meta["theta"] == repr(math.atan(1.0))


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


def test_seed_env_var_changes_probe_states():
    args = ["verify", "schrodinger", "--sign", "-"]
    base = _run_subprocess(args, env={"YBG_SEED": "0x5EED"})
    other = _run_subprocess(args, env={"YBG_SEED": "7"})
    assert base.returncode == 0 and other.returncode == 0
    assert base.stdout != other.stdout
    repeat = _run_subprocess(args, env={"YBG_SEED": "7"})
    assert other.stdout == repeat.stdout


def _qybe_oracle(family, x, y):
    # One point at a time with np.kron, independent of the batched kernel.
    r1 = lambda m: np.kron(m, I2)
    r2 = lambda m: np.kron(I2, m)
    lhs = r1(family(x)) @ r2(family(x * y)) @ r1(family(y))
    rhs = r2(family(y)) @ r1(family(x * y)) @ r2(family(x))
    return np.max(np.abs(lhs - rhs))


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
    expected = [_qybe_oracle(family, v, 0.7) for v in report["values"]]
    assert len(expected) == 4096
    assert np.array_equal(report["results"], expected)


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
        _qybe_oracle(lambda t: build_R_x("+", np.exp(-1j * v), t), -2.9, 2.1)
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


def _patch_qybe(monkeypatch, results):
    """Make the CLI's QYBE kernel return ``results`` for a one-block grid."""
    def fake(r_x, r_y, r_xy):
        assert len(r_x) == len(results)
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
        ["verify", "schrodinger", "--step", "0"],
        ["verify", "schrodinger", "--step", "-1e-5"],
        ["verify", "schrodinger", "--step", "nan"],
        ["synthesize", "theorem1", "--tol", "nan"],
        ["sweep", "qybe", "--param", "x", "--from", "0", "--to", "1", "--steps", "3",
         "--tol", "-inf"],
    ],
)
def test_bad_arguments_rejected_before_computing(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err


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


_WARNINGS = "ignore:.*encountered:RuntimeWarning"


@pytest.mark.filterwarnings(_WARNINGS)
@pytest.mark.parametrize(
    "args",
    [
        ["matrix", "Rx", "--sign", "+", "--q", "1", "--x", "nan"],
        ["matrix", "Rx", "--sign", "+", "--q", "1", "--x", "1e308"],
        ["matrix", "b", "--sign", "-", "--q", "nan"],
        ["matrix", "Rtheta", "--sign", "+", "--phi", "nan", "--theta", "0.2"],
        ["synthesize", "evolution", "--phi", "nan"],
        ["synthesize", "evolution", "--theta", "nan"],
    ],
)
def test_nonfinite_matrix_fails_with_empty_stdout(args, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 1
    assert out == ""
    assert "non-finite entries" in err
    assert "Traceback" not in err


def test_document_json_refuses_nonfinite_entries():
    doc = MatrixDocument.from_matrix(np.full((2, 2), np.nan, dtype=complex))
    with pytest.raises(ValueError):
        doc.to_json()


@pytest.mark.filterwarnings(_WARNINGS)
@pytest.mark.parametrize("param", ["theta", "phi"])
def test_sweep_concurrence_nan_gate_is_usage_error(param, capsys):
    other = "--phi" if param == "theta" else "--theta"
    code, out, err = run_cli(
        ["sweep", "concurrence", "--param", param, "--from", "0", "--to", "1",
         "--steps", "3", other, "nan"],
        capsys,
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "not unitary" in err


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
    expected = [unitarity_residual(build_R_x_normalized("+", 2.2, v)) for v in report["values"]]
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
    expected = [unitarity_residual(build_R_x_normalized("-", v, x)) for v in report["values"]]
    assert np.array_equal(report["results"], expected)


def test_sweep_braid_phi_row_bit_identical_to_oracle(capsys):
    report = _sweep_report(
        ["sweep", "braid", "--param", "phi", "--from", "-1", "--to", "7",
         "--steps", "997", "--sign", "+"],
        capsys,
    )
    expected = [braid_residual(build_b_phi("+", v)) for v in report["values"]]
    assert np.array_equal(report["results"], expected)


def test_nan_input_writes_one_error_line_and_no_warnings():
    proc = subprocess.run(
        [sys.executable, "-m", "ybgates", "sweep", "concurrence", "--param", "theta",
         "--from", "0", "--to", "1", "--steps", "3", "--phi", "nan"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr


def test_numpy_warnings_silenced_in_process(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(
            ["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1",
             "--steps", "3", "--phi", "nan"],
            capsys,
        )
    assert code == 1
    assert _strict_json(out)["nonfinite"] == 3
    assert err == ""


@pytest.mark.parametrize(
    "args, names",
    [
        (["sweep", "unitarity", "--param", "x", "--from", "0", "--to", "1e200", "--steps", "3"],
         ["--from/--to", "x=5e+199"]),
        (["sweep", "unitarity", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
          "--x", "1e200"], ["--x 1e+200"]),
        (["verify", "schrodinger", "--step", "1e300"], ["--step 1e+300"]),
        (["synthesize", "evolution", "--phi", "inf"], ["--phi", "inf"]),
        (["synthesize", "evolution", "--theta", "-inf"], ["--theta", "-inf"]),
        (["matrix", "U", "--sign", "+", "--phi", "1", "--theta", "inf"], ["--theta", "inf"]),
        (["matrix", "Rtheta", "--sign", "-", "--phi", "1", "--theta", "-inf"], ["--theta", "-inf"]),
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
    # Points 1 and 2 of the first kernel call are made NaN and inf.
    real = getattr(ybgates.cli, kernel)
    calls = []

    def poisoned(*args, **kwargs):
        out = np.array(real(*args, **kwargs))
        if not calls:
            out[[1, 2]] = [math.nan, math.inf]
        calls.append(len(out))
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


def _relation_oracle(relation):
    """Per-point residuals of a relation at its default grid, in verify order."""
    phis = [2.0 * math.pi * k / 8 for k in range(8)]
    if relation == "braid":
        return [
            braid_residual(build_b_phi(sign, 2.0 * math.pi * k / 32))
            for sign in "+-"
            for k in range(32)
        ]
    if relation == "unitarity":
        return [
            unitarity_residual(build_R_x_normalized(sign, phi, float(x)))
            for sign in "+-"
            for phi in phis
            for x in np.linspace(-3.0, 3.0, 61)
        ]
    if relation == "schrodinger":
        rng = np.random.default_rng(DEFAULT_SEED)
        states = []
        for _ in range(8):
            v = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            states.append(v / np.linalg.norm(v))
        return [
            schrodinger_residual(sign, phi, psi0, x, h=1e-5)
            for sign in "+-"
            for phi in (0.0, math.pi / 3.0)
            for x in (0.4, 1.0, 2.0)
            for psi0 in states
        ]
    out = []
    for sign in "+-":
        for phi in phis:
            op = interaction_operator(sign, phi)
            for theta in np.linspace(0.0, 2.0 * math.pi, 9):
                theta = float(theta)
                out.append(residual(R_from_H(sign, phi, theta), build_R_theta(sign, phi, theta)))
                out.append(residual(evolution_U(sign, phi, theta), expm(-0.5j * theta * op)))
    out.append(residual(build_b_phi("-", 0.0), expm(0.25j * math.pi * kron(SIGMA_X, SIGMA_Y))))
    return out


@pytest.mark.parametrize("relation", ["braid", "unitarity", "schrodinger", "exponential"])
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


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "unitarity", "--param", "x", "--from", "-1.0087657831281405e-05",
         "--to", "0.17617500917055973", "--steps", "61", "--sign", "-", "--phi", "5.1"],
        ["sweep", "qybe", "--param", "phi", "--from", "0", "--to", "1", "--steps", "3",
         "--x", "-2E-7", "--y", "-.5"],
        ["matrix", "b", "--sign", "-", "--q", "-1e-3,-2e-5"],
    ],
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


# sha256 of the stdout of 4096-step QYBE sweeps, captured at the kron-lift
# kernel that the gather lift replaced.
SWEEP_QYBE_SHA256 = {
    ("x", "json"): "4275700fef580d3618074ad895c0ea7bfa95bb302a78c15a333bf683e7bcf3e4",
    ("phi", "json"): "a1ca7dceb5bbc729de3dc897e4189ed98844521540e5e6e701292fba72b1a6fb",
    ("x", "csv"): "2e2c2a24212a05cd0299de772211c6c25a5be67e8ed88d2dcbed2085b9d909c9",
    ("phi", "csv"): "3c973e0ab07c23db9042c6c49ed68a46cce19d88f8a72b05f4132e9bb40b9831",
}
_SWEEP_QYBE_ARGS = {
    "x": ["--from", "-3", "--to", "3", "--sign", "-", "--phi", "1.3", "--y", "0.7"],
    "phi": ["--from", "0.3", "--to", "5", "--sign", "+", "--x", "-2.9", "--y", "2.1"],
}


@pytest.mark.parametrize("param, fmt", list(SWEEP_QYBE_SHA256), ids="-".join)
def test_sweep_qybe_4096_step_stdout_golden(param, fmt, capsys):
    code, out, _ = run_cli(
        ["sweep", "qybe", "--param", param, "--steps", "4096", "--format", fmt,
         *_SWEEP_QYBE_ARGS[param]],
        capsys,
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == SWEEP_QYBE_SHA256[param, fmt]


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "qybe", "--grid", "12", "--phi-grid", "2"],
        ["sweep", "qybe", "--param", "x", "--from", "-3", "--to", "3", "--steps", "200"],
        ["sweep", "qybe", "--param", "phi", "--from", "0", "--to", "6", "--steps", "200"],
    ],
)
def test_qybe_commands_never_call_kron(args, monkeypatch, capsys):
    def refuse(*_args):
        raise AssertionError("kron called on the QYBE path")

    real = ybgates.linalg.kron
    for module in list(sys.modules.values()):
        if getattr(module, "kron", None) is real:
            monkeypatch.setattr(module, "kron", refuse)
    monkeypatch.setattr(np, "kron", refuse)
    code, out, err = run_cli(args, capsys)
    assert code == 0, err
    assert json.loads(out)["pass"] is True


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
        (["verify", "unitarity", "--step", "0.1"], "--step is not used by verify unitarity"),
        (["verify", "schrodinger", "--phi-grid", "2"],
         "--phi-grid is not used by verify schrodinger"),
        (["verify", "braid", "--matrix-file", "/nonexistent", "--sign", "+"],
         "--sign is not used by verify braid --matrix-file"),
    ],
)
def test_ignored_flags_are_usage_errors(args, message, capsys):
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


_FLAG_VALUES = {"sign": "+", "grid": "3", "phi_grid": "2", "step": "1e-4"}


@pytest.mark.parametrize(
    "command, flags",
    [(["verify", name], entry[2]) for name, entry in ybgates.cli._RELATIONS.items()]
    + [(["verify", "braid"], {"matrix_file": None})]
    + [
        (["sweep", quantity, "--param", param, "--from", "0", "--to", "1", "--steps", "3"],
         entry[1])
        for (quantity, param), entry in ybgates.cli._SWEEPS.items()
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


@pytest.mark.filterwarnings(_WARNINGS)
@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--phi", "nan", "error: gate is not unitary (residual nan)\n"),
        ("--phi", "inf", "error: gate is not unitary (residual nan)\n"),
        ("--theta", "nan", "error: gate is not unitary (residual nan)\n"),
        ("--theta", "inf", "error: math domain error\n"),
    ],
)
def test_sweep_concurrence_bad_gate_messages(flag, value, message, capsys):
    param = "theta" if flag == "--phi" else "phi"
    code, out, err = run_cli(
        ["sweep", "concurrence", "--param", param, "--from", "0", "--to", "1",
         "--steps", "3", flag, value],
        capsys,
    )
    assert (code, out, err) == (2, "", message)


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
