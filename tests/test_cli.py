"""Command-line contract: exit codes, documents, determinism."""

import json
import math
import subprocess
import sys

import numpy as np

import pytest

import ybgates.cli
from ybgates.cli import MatrixDocument, main
from ybgates.eightvertex import build_b_phi, build_R_x
from ybgates.gates import cnot

I2 = np.eye(2, dtype=complex)

# `ybg verify qybe` stdout at the per-point implementation the batched
# kernel replaced; the kernel must reproduce it byte for byte.
VERIFY_QYBE_GOLDEN = (
    '{"command": "verify", "max_residual": 7.105427357601002e-15, "pass": true, '
    '"points": 4096, "relation": "qybe", "tol": 1e-10, '
    '"worst": "sign=+ phi=5.497787143782138 x=2.0 y=2.0"}\n'
)


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
