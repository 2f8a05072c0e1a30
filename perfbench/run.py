"""ybgates benchmark: one closed-loop client, one process, one workload.

    python3 perfbench/run.py --workload qybe_grid --seed 1 --seconds 36 --trace 0

Prints the run's environment and details as ``{"info": ...}``, then, as
the last line, ``{"correct", "attempted", "failed", "metrics"}``. With
``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1`` the
per-layer ones. Records and spans go to ``.perfbench_out/``. Exits 2
without a result if the checkout holds no ``src/ybgates``.
"""

from __future__ import annotations

import argparse
import json
import sys

# Only the standard library is loaded before the launcher starts, so the
# launcher, and through it every measured child, stays small (see
# launcher.py).
from launcher import Launcher

WORKLOADS = ("qybe_grid", "relation_suite", "entangle_scan")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    with Launcher() as launcher:
        import bench
        from workloads import SourceMissingError

        try:
            record = bench.measure(launcher, args.workload, args.seed, args.seconds, args.trace)
        except SourceMissingError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    print(json.dumps({"info": record["info"]}))
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
