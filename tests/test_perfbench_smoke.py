"""The benchmark harness still runs against the current engine.

perfbench/run.py --smoke runs every workload at tiny sizes with and without
tracing, checks every op's output against what the generator planted, checks
that output digests repeat across passes and processes, and checks the metric
schema against BENCHMARK.json; it exits non-zero when any of that fails.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
