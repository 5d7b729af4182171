"""Time the set-up of one workload in this fresh process and print seconds.

Usage: python3 perfbench/setup_probe.py <workload>
"""

import sys
import time
from pathlib import Path

import harness

if __name__ == "__main__":
    workload = harness.WORKLOADS[sys.argv[1]]
    t0 = time.perf_counter()
    harness.import_lgha(Path(__file__).resolve().parent.parent)
    harness.setup(workload)
    print(repr(time.perf_counter() - t0))
