"""Measurement code of the benchmark; run.py is the entry point.

Each op starts only after the previous one returns, and every op's output
is checked (see workloads.py). ``end_to_end`` runs the closed loop for
``--seconds``; ``per_layer`` runs a fixed list of ops, each once untraced
and once under the span recorder, so its counts repeat exactly for the
same seed and seconds. Every reported time is scaled to reference speed
(see reference.py).
"""

from __future__ import annotations

import json
import statistics
import time

import probes
import reference
import workloads
from launcher import Launcher
from tracer import DISTINCT, Tracer
from workloads import ROOT

OUT_DIR = ROOT / ".perfbench_out"
# Shares of the timed window given to in-process ops, fresh-subprocess CLI
# runs and set-up probes.
SHARES = {"op": 0.5, "cli": 0.4, "setup": 0.1}
IMPORT_REPS = 3
TAIL_BEYOND = 10
# Ops the traced run makes per second of --seconds, sized so a traced run
# lasts about --seconds on a 2-core machine; fixed, so counts repeat.
TRACE_OPS_PER_S = {"qybe_grid": 0.2, "relation_suite": 0.2, "entangle_scan": 0.5}


class Tally:
    """Checked ops: every op counts as attempted, a bad one as failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok

    @property
    def fail_frac(self) -> float:
        return self.failed / self.attempted


def timed_op(yb, op: tuple, tally: Tally, tracer: Tracer | None = None) -> float:
    """Run and check one op; return its latency in ms.

    An op that raises counts as failed and never stops the run.
    """
    start = time.perf_counter()
    try:
        if tracer is None:
            outcomes = workloads.run_op(yb, op)
        else:
            with tracer.op():
                outcomes = workloads.run_op(yb, op)
    except Exception:
        tally.record(False)
        return (time.perf_counter() - start) * 1e3
    elapsed = (time.perf_counter() - start) * 1e3
    tally.record(workloads.check_op(op, outcomes))
    return elapsed


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples above it.

    Returns (value, percentile, samples beyond). With too few samples the
    maximum is returned with zero beyond.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, 0
    rank = n - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / n, TAIL_BEYOND


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Gauge:
    """Scales timed samples to reference speed (see reference.py).

    Every sample is bracketed by runs of the reference kernel, one just
    before it and one just after, and multiplied by REF_MS over their
    mean. The raw samples, the factors and a log of every sample and
    kernel run are kept for the record.
    """

    def __init__(self) -> None:
        self.raw: dict[str, list[float]] = {}
        self.factors: list[float] = []
        # (clock, kind, value) of every sample and kernel run, in order.
        self.log: list[tuple[float, str, float]] = []
        self.last = self._reference()

    def _reference(self) -> float:
        ms = reference.reference_ms()
        self.log.append((time.perf_counter(), "reference_ms", ms))
        return ms

    def scaled(self, kind: str, raw: float) -> float:
        self.log.append((time.perf_counter(), kind, raw))
        now = self._reference()
        factor = reference.REF_MS / ((self.last + now) / 2.0)
        self.last = now
        self.raw.setdefault(kind, []).append(raw)
        self.factors.append(factor)
        return raw * factor


def end_to_end(yb, launcher: Launcher, workload: str, seed: int, seconds: float,
               tally: Tally) -> tuple[dict, dict, dict]:
    """Closed loop for ``seconds``: in-process ops, fresh-subprocess CLI
    runs and set-up probes interleaved, each kind taking its SHARES of the
    time, so a slow phase of the machine hits all three alike."""
    ops = workloads.make_inputs(workload, seed)
    command = workloads.cli_command(workload, seed)
    latencies, cli_ms, rss_mb, setup_s = [], [], [], []
    points = 0

    def run_op() -> None:
        nonlocal points
        op = ops[1 + len(latencies) % (len(ops) - 1)]
        latencies.append(gauge.scaled("op_ms", timed_op(yb, op, tally)))
        points += workloads.points_per_op(op)

    def run_cli() -> None:
        child = probes.cli_run(launcher, command.argv)
        cli_ms.append(gauge.scaled("cli_ms", child.wall_ms))
        rss_mb.append(child.peak_rss_mb)
        tally.record(workloads.check_cli(command, child.code, child.stdout))

    def run_setup() -> None:
        ok, seconds_taken = probes.setup_time(launcher, workload, seed)
        setup_s.append(gauge.scaled("setup_s", seconds_taken))
        tally.record(ok)

    runners = {"op": run_op, "cli": run_cli, "setup": run_setup}
    collected = {"op": latencies, "cli": cli_ms, "setup": setup_s}
    spent = dict.fromkeys(SHARES, 0.0)

    timed_op(yb, ops[0], tally)  # warm-up, not timed
    gauge = Gauge()
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not all(collected.values()):
        kind = min(SHARES, key=lambda k: spent[k] / SHARES[k])
        began = time.perf_counter()
        runners[kind]()
        spent[kind] += time.perf_counter() - began

    tail_ms, tail_pct, beyond = tail(latencies)
    busy_s = sum(latencies) / 1e3
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "op_ms_p50": metric(statistics.median(latencies), "ms"),
        "op_ms_tail": metric(tail_ms, "ms"),
        "points_per_s": metric(points / busy_s, "1/s"),
        "cli_ms_p50": metric(statistics.median(cli_ms), "ms"),
        "peak_rss_mb": metric(statistics.median(rss_mb), "MB"),
        "pass_frac": metric(1.0 - tally.fail_frac, "ratio"),
    }
    details = {
        "ops": len(latencies),
        "op_ms_tail_percentile": tail_pct,
        "op_ms_tail_beyond": beyond,
        "points": points,
        "points_per_op": points / len(latencies),
        "points_unit": "library calls" if workload == "entangle_scan" else "relation points",
        "input_ops": len(ops),
        "cli_argv": ["python", "-m", "ybgates", *command.argv],
        "cli_runs": len(cli_ms),
        "setup_runs": len(setup_s),
        "fail_frac": metric(tally.fail_frac, "ratio"),
        "reference_ms": reference.REF_MS,
        "scale_p50": statistics.median(gauge.factors),
        "unscaled_p50": {k: statistics.median(v) for k, v in gauge.raw.items()},
    }
    samples = {"op_ms": latencies, "cli_ms": cli_ms, "setup_s": setup_s,
               "peak_rss_mb": rss_mb, "scale": gauge.factors, "log": gauge.log}
    return metrics, details, samples


def _layer_metrics(totals: dict[str, tuple[int, float]], tracer: Tracer, scale: float) -> dict:
    """Per-layer counts, and self times scaled to reference speed."""
    def calls(name: str) -> int:
        return totals.get(name, (0, 0.0))[0]

    def self_ms(prefix: str) -> float:
        return scale * sum(ms for name, (_, ms) in totals.items() if name.startswith(prefix))

    def count(prefix: str) -> int:
        return sum(c for name, (c, _) in totals.items() if name.startswith(prefix))

    def distinct_ratio(name: str) -> float:
        return len(tracer.arguments[name]) / calls(name) if calls(name) else 0.0

    out = {}
    for fn in ("kron", "inverse", "expm"):
        out[f"linalg.{fn}.calls"] = metric(calls(f"linalg.{fn}"), "count")
        out[f"linalg.{fn}.self_ms"] = metric(self_ms(f"linalg.{fn}"), "ms")
    out["linalg.self_ms"] = metric(self_ms("linalg."), "ms")
    out["yangbaxter.qybe_residual.calls"] = metric(calls("yangbaxter.qybe_residual"), "count")
    out["yangbaxter.braid_residual.calls"] = metric(calls("yangbaxter.braid_residual"), "count")
    out["yangbaxter.self_ms"] = metric(self_ms("yangbaxter."), "ms")
    out["eightvertex.build.calls"] = metric(count("eightvertex.build"), "count")
    out["eightvertex.self_ms"] = metric(self_ms("eightvertex."), "ms")
    out["hamiltonian.calls"] = metric(count("hamiltonian."), "count")
    out["hamiltonian.self_ms"] = metric(self_ms("hamiltonian."), "ms")
    out["entangle.is_entangling.calls"] = metric(calls("entangle.is_entangling"), "count")
    out["entangle.probe_states"] = metric(tracer.probe_states, "count")
    out["entangle.product_state_grid.self_ms"] = metric(
        self_ms("entangle.product_state_grid"), "ms")
    out["entangle.self_ms"] = metric(self_ms("entangle."), "ms")
    out["gates.calls"] = metric(count("gates."), "count")
    out["gates.self_ms"] = metric(self_ms("gates."), "ms")
    out["cli.main.calls"] = metric(calls("cli.main"), "count")
    out["cli.self_ms"] = metric(self_ms("cli."), "ms")
    for name in DISTINCT:
        out[f"{name}.distinct_ratio"] = metric(distinct_ratio(name), "ratio")
    return out


def per_layer(yb, launcher: Launcher, workload: str, seed: int, seconds: float,
              tally: Tally) -> tuple[dict, dict, dict]:
    """A fixed list of ops, each run untraced and then traced, so counts
    repeat exactly; times are scaled by the run's median gauge factor."""
    ops = workloads.make_inputs(workload, seed)
    count = max(1, round(seconds * TRACE_OPS_PER_S[workload]))
    trace_ops = [ops[i % len(ops)] for i in range(1, count + 1)]

    timed_op(yb, ops[0], tally)  # warm-up, not timed
    gauge = Gauge()
    imports = []
    for _ in range(IMPORT_REPS):
        imports.append(probes.import_times_ms(launcher))
        gauge.scaled("import_ybgates_ms", imports[-1]["ybgates"])
    tracer = Tracer()
    plain, traced = [], []
    for op in trace_ops:
        plain.append(timed_op(yb, op, tally))
        with tracer.installed():
            traced.append(timed_op(yb, op, tally, tracer))
        gauge.scaled("traced_op_ms", traced[-1])

    spans = OUT_DIR / f"spans-{workload}-seed{seed}.npz"
    tracer.save(spans)
    scale = statistics.median(gauge.factors)
    metrics = _layer_metrics(tracer.totals(), tracer, scale)
    for module in ("numpy", "ybgates"):
        metrics[f"import.{module}_ms"] = metric(
            scale * statistics.median(t[module] for t in imports), "ms")
    # Each traced op runs right after its untraced twin, so their ratio
    # cancels the machine's slow phases.
    overhead = statistics.median(t / p for t, p in zip(traced, plain)) - 1.0
    metrics["trace.overhead_frac"] = metric(overhead, "ratio")
    details = {
        "traced_ops": len(trace_ops),
        "spans": len(tracer.name_col),
        "spans_file": str(spans.relative_to(ROOT)),
        "op_ms_p50_untraced_unscaled": statistics.median(plain),
        "op_ms_p50_traced_unscaled": statistics.median(traced),
        "import_ms_samples_unscaled": imports,
        "reference_ms": reference.REF_MS,
        "scale_p50": scale,
        "fail_frac": metric(tally.fail_frac, "ratio"),
    }
    return metrics, details, {"log": gauge.log}


def measure(launcher: Launcher, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run: returns the record whose ``result`` is the last stdout line.

    Raises workloads.SourceMissingError before measuring anything if the
    checkout holds no ybgates source.
    """
    yb = workloads.import_ybgates()
    env = probes.environment(seed)
    tally = Tally()
    run = per_layer if trace else end_to_end
    metrics, details, samples = run(yb, launcher, workload, seed, seconds, tally)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    info = {"workload": workload, "trace": trace, "env": env, "details": details}
    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"result-{workload}-seed{seed}-trace{trace}.json"
    record.write_text(json.dumps({"info": info, "samples": samples, "result": result}) + "\n")
    return {"info": info, "result": result}
