"""Tests of the benchmark harness itself.

Run from the repository root: python -m pytest perfbench/test_bench.py
"""

import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
END_TO_END = {m["name"] for m in json.loads(
    (BENCH_DIR.parent / "BENCHMARK.json").read_text())["end_to_end"]}


def test_out_of_memory_rts_day_is_a_counted_failure():
    # Day seed 34 starts with a sub-second headway, so the first RTS rate
    # estimate is above 10 veh/s and the Poisson quadrature exhausts the
    # benchmark's address-space cap. The op must count as failed and the
    # run must still finish and report every end-to-end metric.
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", "rts_day",
         "--seed", "34", "--seconds", "1", "--trace", "0"],
        cwd=BENCH_DIR.parent, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["attempted"] == 1
    assert result["failed"] == 1
    assert result["correct"] is True
    assert set(result["metrics"]) == END_TO_END
    assert "MemoryError" in proc.stdout
