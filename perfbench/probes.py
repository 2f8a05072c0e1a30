"""Measurements that need a fresh interpreter, and the run environment.

Every child is spawned by the launcher (see launcher.py) with
``sys.executable`` and the benchmark's own environment, unchanged.
Children that import ybgates run with ``src`` as their working directory
(``python -m`` and ``-c`` put it first on ``sys.path``) or insert it
themselves, so they load this checkout's source.
"""

from __future__ import annotations

import ctypes
import glob
import os
import platform
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from launcher import Launcher
from workloads import ROOT, SRC

SETUP_PROBE = Path(__file__).resolve().with_name("setup_probe.py")


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    wall_ms: float
    peak_rss_mb: float


def setup_time(launcher: Launcher, workload: str, seed: int) -> tuple[bool, float]:
    """Seconds from spawning a fresh interpreter to ybgates imported and
    the workload's inputs generated; the child reports the moment on the
    monotonic clock, which all processes share.

    Returns (ok, seconds). A child that fails is timed to its exit.
    """
    child = launcher.run([sys.executable, str(SETUP_PROBE), workload, str(seed)], ROOT)
    lines = child["stdout"].split()
    if child["code"] != 0 or not lines:
        return False, child["wall_s"]
    try:
        return True, float(lines[-1]) - child["start"]
    except ValueError:
        return False, child["wall_s"]


def cli_run(launcher: Launcher, argv: tuple[str, ...]) -> CliRun:
    """``python -m ybgates <argv>`` in a fresh interpreter."""
    child = launcher.run([sys.executable, "-m", "ybgates", *argv], SRC)
    # ru_maxrss is in KiB on Linux.
    return CliRun(child["code"], child["stdout"], child["wall_s"] * 1e3,
                  child["maxrss_kb"] / 1024.0)


def import_times_ms(launcher: Launcher) -> dict[str, float]:
    """Cumulative import time of numpy and ybgates from ``-X importtime``."""
    child = launcher.run([sys.executable, "-X", "importtime", "-c", "import ybgates"], SRC)
    if child["code"] != 0:
        raise RuntimeError(f"import probe failed: {child['stderr'].strip()}")
    found = {}
    for line in child["stderr"].splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[2].strip() in ("numpy", "ybgates"):
            found[parts[2].strip()] = int(parts[1]) / 1000.0
    return found


def _git_commit() -> str | None:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _blas() -> tuple[str | None, int | None]:
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        name = None
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return name, int(fn())
    return name, None


def environment(seed: int) -> dict:
    """What ran, and on what, recorded with every result."""
    blas, threads = _blas()
    return {
        "commit": _git_commit(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }
