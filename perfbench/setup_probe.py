"""Time one fresh-process set-up of a benchmark workload and print it in seconds.

Set-up is importing platooncoord and platooncoord.cli, loading the bundled
schedule, computing the cost constants and building the workload.
Usage: python3 perfbench/setup_probe.py <workload> <seed>
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
print(time.perf_counter() - start)
