"""Child of the ``setup_s`` measurement: import ybgates, generate one
workload's inputs, then print the monotonic clock and exit.

Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys
import time

from workloads import import_ybgates, make_inputs

if __name__ == "__main__":
    import_ybgates()
    make_inputs(sys.argv[1], int(sys.argv[2]))
    print(repr(time.monotonic()))
