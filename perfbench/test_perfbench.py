"""The benchmark's own checks.  Run from the checkout root:

    python3 -m pytest perfbench -q

They cover what a timing run cannot show from the outside: that traced
work counts repeat exactly for a fixed seed, that a held-out seed runs
the same code path, that BENCHMARK.json names exactly the metrics the
command prints, and that the command refuses to run without the sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # first: it puts this checkout's src/ on the path and pins BLAS threads

import inputs  # noqa: E402
import spans  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
GATED = [w["name"] for w in SPEC["workloads"]]
FIXED_SEED, HELD_OUT_SEED = 7, 20_251


def traced_counts(name: str, seed: int):
    """Exact counts of one full cycle of instances, traced."""
    wl = inputs.WORKLOADS[name]
    tracer, counts, tally = spans.Tracer(), run.Counts(), run.Tally()
    for rep in range(wl.cycle):
        run.traced_ops(run.traced_case(wl, seed, rep, tracer), tracer, counts, tally)
    sm = spans.Summary(tracer)
    return {
        "calls": dict(sm.calls),
        "op_calls": dict(sm.op_calls),
        "blocks": list(sm.counts["isotonic.project_cone"]),
        "iterations": counts.iterations,
        "unit_steps": counts.unit_steps,
        "evaluations": counts.evaluations,
        "failed": tally.failed,
    }


@pytest.mark.parametrize("name", GATED)
def test_counts_repeat_exactly_and_held_out_seed_takes_same_path(name):
    first = traced_counts(name, FIXED_SEED)
    assert traced_counts(name, FIXED_SEED) == first
    assert first["failed"] == 0
    assert first["iterations"] and first["evaluations"]

    held_out = traced_counts(name, HELD_OUT_SEED)
    assert held_out["failed"] == 0
    assert set(held_out["calls"]) == set(first["calls"])
    assert set(held_out["op_calls"]) == set(first["op_calls"])


def test_missing_target_shows_as_absent_layer(monkeypatch):
    import owlball.ssn
    monkeypatch.delattr(owlball.ssn, "cone_jacobian")
    tracer = spans.Tracer()
    with tracer.installed():
        pass
    assert tracer.missing == {"owlball.ssn.cone_jacobian"}
    assert spans.Summary(tracer).calls["jacobian.cone_jacobian"] == 0


def test_installed_restores_every_target():
    before = {(p, a): getattr(spans._owner(p), a) for p, a, _ in spans.TARGETS}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError), tracer.installed():
        assert all(getattr(spans._owner(p), a) is not fn for (p, a), fn in before.items())
        raise RuntimeError
    assert all(getattr(spans._owner(p), a) is fn for (p, a), fn in before.items())


def test_self_times_account_for_op_time():
    wl = inputs.WORKLOADS["batch-1e3"]
    tracer, counts, tally = spans.Tracer(), run.Counts(), run.Tally()
    run.traced_ops(run.traced_case(wl, 1, 0, tracer), tracer, counts, tally)
    sm = spans.Summary(tracer)
    op_ns = sum(sm.busy_ns[spans.OP_PREFIX + op] for op in run.OPS)
    glue_ns = sum(sm.self_ns[spans.OP_PREFIX + op] for op in run.OPS)
    assert sum(sm.module_self_ns.values()) + glue_ns == op_ns


def test_tail_leaves_ten_samples_above():
    assert run.tail(range(1, 101)) == (90, "p90")
    assert run.tail(range(1, 1001)) == (900, "p90")
    assert run.tail(range(1, 40)) == (20, "median (39 samples, too few for a tail)")


def test_workload_reasons_match_spec():
    for w in SPEC["workloads"]:
        assert w["why"] == inputs.WORKLOADS[w["name"]].why


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_spec(trace, key):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-1e3", "--seed", "3",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == spec


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "batch-1e3", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert out.returncode != 0
    assert out.stdout == ""
