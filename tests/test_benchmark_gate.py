"""Smoke run of the benchmark's correctness gate on the current library.

``perfbench/run.py`` checks every answer it times (ball and prox
certificates, solver agreement, and symmetry and idempotence of the
ball Jacobian), so a short run guards each library change with the same
gate the benchmark applies.  Only correctness is asserted, never timing.
A traced run checks that the benchmark's per-layer mode still reads
what it needs off the solvers' reports.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_benchmark(trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "plateau-1e5",
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def test_short_benchmark_run_passes_its_gate():
    summary, stderr = run_benchmark(trace=0)
    assert summary["correct"] is True, stderr
    assert summary["failed"] == 0
    assert summary["attempted"] > 0


def test_traced_run_reads_the_step_kinds():
    # The traced mode reads StepRecord.unit_step and
    # RootfindReport.evaluations; every project_ball step is Newton's.
    summary, stderr = run_benchmark(trace=1)
    assert summary["correct"] is True, stderr
    assert summary["metrics"]["ssn.unit_step_frac"]["value"] == 1.0
    assert summary["metrics"]["rootfind.evaluations"]["value"] > 0
