"""Small process that spawns and reaps every measured child.

At exec, Linux carries the spawning process's peak RSS into the child's
``ru_maxrss``, so a child spawned by the benchmark itself (tens of MB
once numpy and ybgates are loaded) would report the benchmark's peak,
not its own. The launcher is started before the benchmark imports
anything heavy, stays small, and runs each child on request:

    request, one stdin line:   {"argv": [...], "cwd": "..."}
    reply, one stdout line:    {"code", "stdout", "stderr", "start",
                                "wall_s", "maxrss_kb"}

``start`` is the monotonic clock just before the spawn and ``wall_s``
runs from there to the reap. A child still running after TIMEOUT_S is
killed and reported with a negative exit code.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

TIMEOUT_S = 120.0


def _run(argv: list[str], cwd: str) -> dict:
    start = time.monotonic()
    proc = subprocess.Popen(argv, cwd=cwd, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    watchdog = threading.Timer(TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        # The children write at most a few lines to stderr, so draining
        # stdout first cannot fill the stderr pipe and stall them.
        stdout = proc.stdout.read()
        stderr = proc.stderr.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        watchdog.cancel()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    return {"code": proc.returncode, "stdout": stdout, "stderr": stderr, "start": start,
            "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def serve() -> None:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(_run(request["argv"], request["cwd"])) + "\n")
        sys.stdout.flush()


class Launcher:
    """Client end: start before importing numpy, use as a context manager."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve())],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], cwd: Path) -> dict:
        self._proc.stdin.write(json.dumps({"argv": argv, "cwd": str(cwd)}) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("launcher exited")
        return json.loads(reply)

    def close(self) -> None:
        self._proc.stdin.close()
        try:
            self._proc.wait(timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Launcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    serve()
