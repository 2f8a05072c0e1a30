"""Short smoke run of every workload, traced and untraced.

    python3 perfbench/smoke.py          # or: python -m pytest perfbench/smoke.py

Checks that each run exits 0, prints every metric BENCHMARK.json names
with its unit and nothing else, fails no op, and that two traced runs
with the same seed report identical per-layer counts.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SECONDS = "1"
SEED = "7"


def _run(workload: str, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", SEED,
            "--seconds", SECONDS, "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    *_, info_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(info_line)["info"], json.loads(result_line)


def _check(workload: str, trace: int) -> dict:
    info, result = _run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert info["details"]["fail_frac"] == {"value": 0.0, "unit": "ratio"}
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == expected
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    return result["metrics"]


def _counts(metrics: dict) -> dict:
    return {n: m["value"] for n, m in metrics.items() if m["unit"] in ("count", "ratio")
            and n != "trace.overhead_frac"}


def test_end_to_end_metrics_printed_and_no_op_fails():
    for workload in SPEC["workloads"]:
        _check(workload["name"], 0)


def test_per_layer_metrics_printed_and_counts_repeat():
    for workload in SPEC["workloads"]:
        first = _check(workload["name"], 1)
        second = _check(workload["name"], 1)
        assert _counts(first) == _counts(second), workload["name"]


if __name__ == "__main__":
    test_end_to_end_metrics_printed_and_no_op_fails()
    test_per_layer_metrics_printed_and_counts_repeat()
    print("smoke ok")
