"""Smoke run of the benchmark's correctness gate on the current library.

``perfbench/run.py`` checks every answer it times (ball and prox
certificates, solver agreement, and symmetry and idempotence of the
ball Jacobian), so a short run guards each library change with the same
gate the benchmark applies.  Only correctness is asserted, never timing.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_short_benchmark_run_passes_its_gate():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plateau-1e5",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True, proc.stderr
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
