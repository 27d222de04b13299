"""owlball benchmark: ball-projection latency on four workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload gauss-1e6 --seed 1 --seconds 45 --trace 0

Each instance of the workload is put through four ops, each timed alone
with ``perf_counter_ns`` (instance generation and the correctness gate
stay outside the timers):

    ssn       project_ball(inst)
    rootfind  solve_root(inst, tol=1e-12)
    prox      prox_owl(b, weights, mu),  mu = 0.5 * dual_norm(b)
    jac       ball_jacobian(inst, report) and ten apply_ball_jacobian matvecs

Instances are drawn until ``--seconds`` have passed, then up to the end
of the current cycle of radii and weight families, so every run covers
each instance type equally.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` runs every instance once plain and once with spans around
the library's functions and prints the per-layer metrics.  The last line
of standard output is one JSON object with the metrics.

The process is serial and pins BLAS/OpenMP to one thread.  It imports
owlball from ``src/`` of the checkout it sits in and refuses to run
without it.
"""

from __future__ import annotations

import os

# Must precede the first numpy import, here and in the set-up children.
for _var in ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

OPS = ("ssn", "rootfind", "prox", "jac")
ROOTFIND_TOL = 1e-12
SETUP_RUNS = 3            # set-up children per run; setup_s is their median
SETUP_TIMEOUT_S = 150
# Tails stop at p90.  On a shared 2-vCPU host p99 of batch-1e3 moved by
# 0.24 of its median over ten seeds where p50 moved by 0.10, and a higher
# cap would let one workload switch percentile between runs whose sample
# counts differ (plateau-1e5 held 288-336 instances in 45-second runs on a
# fast phase of that host, fewer on a slow one).
TAIL_PERCENTILES = (90.0, 75.0)
TAIL_BEYOND = 10          # samples a tail percentile must leave above it


def import_owlball():
    """Import owlball from this checkout's ``src/``; exit if it is not there."""
    if not (SRC / "owlball" / "__init__.py").is_file():
        sys.exit(f"perfbench: no owlball sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import owlball
    if Path(owlball.__file__).resolve().parent != SRC / "owlball":
        sys.exit(f"perfbench: imported owlball from {owlball.__file__}, not {SRC}")
    return owlball


owlball = import_owlball()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import gate  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


# ---------------------------------------------------------------- ops

class Outcome:
    """Timings and outputs of the four ops on one case."""

    def __init__(self):
        self.ns: dict[str, int] = {}
        self.out: dict[str, object] = {}
        self.errors: dict[str, str] = {}


def _timed(outcome: Outcome, op: str, fn, tracer) -> None:
    t0 = time.perf_counter_ns()
    try:
        if tracer is None:
            out = fn()
        else:
            with tracer.span(spans.OP_PREFIX + op):
                out = fn()
    except Exception:  # a raising op is a failed op; keep measuring the rest
        outcome.ns[op] = time.perf_counter_ns() - t0
        outcome.errors[op] = traceback.format_exc()
        return
    outcome.ns[op] = time.perf_counter_ns() - t0
    outcome.out[op] = out


def run_ops(case, tracer=None) -> Outcome:
    inst, oc = case.inst, Outcome()
    _timed(oc, "ssn", lambda: owlball.project_ball(inst), tracer)
    _timed(oc, "rootfind", lambda: owlball.solve_root(inst, tol=ROOTFIND_TOL), tracer)
    _timed(oc, "prox", lambda: owlball.prox_owl(inst.b, inst.weights, case.mu), tracer)
    ssn = oc.out.get("ssn")
    if ssn is None or ssn.report is None:
        oc.errors["jac"] = "no ssn report to differentiate"
        return oc

    def jac():
        s = owlball.ball_jacobian(inst, ssn.report)
        return s, [owlball.apply_ball_jacobian(s, v) for v in case.probes]

    _timed(oc, "jac", jac, tracer)
    return oc


def judge(case, oc: Outcome) -> dict[str, str]:
    """Run the correctness gate; map each failed op to the reason."""
    inst, out = case.inst, oc.out
    bad = {op: oc.errors.get(op, "not run") for op in OPS if op not in out}
    ssn, rf = out.get("ssn"), out.get("rootfind")
    if ssn is not None:
        if ssn.report is None or not ssn.report.converged:
            bad["ssn"] = "no converged solve reported"
        elif not gate.ball_ok(inst, ssn.x):
            bad["ssn"] = "ball certificate (feasibility, duality gap) failed"
    if rf is not None and not gate.ball_ok(inst, rf.x):
        bad["rootfind"] = "ball certificate (feasibility, duality gap) failed"
    # Two answers that each pass their certificate yet disagree cannot
    # both be right, and nothing says which one is wrong.
    if ("ssn" not in bad and "rootfind" not in bad
            and not gate.objectives_agree(inst, ssn.x, rf.x)):
        bad["ssn"] = bad["rootfind"] = "ssn and rootfind objectives disagree"
    if "prox" in out and not gate.prox_ok(inst.b, inst.weights, case.mu, out["prox"]):
        bad["prox"] = "prox certificate failed"
    if "jac" in out:
        s, images = out["jac"]
        if not gate.jac_ok(lambda v: owlball.apply_ball_jacobian(s, v), case.probes, images):
            bad["jac"] = "Jacobian not symmetric idempotent"
    return bad


# ---------------------------------------------------------------- set-up

def setup_once(wl, seed: int):
    """First instance built and validated, one untimed warm-up of each op."""
    run_ops(inputs.make_case(wl, seed, 0))


def measure_setups(args) -> list[float]:
    """Wall seconds from process start to ready, over fresh child processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            sys.exit(f"perfbench: set-up child failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


# ---------------------------------------------------------------- statistics

def tail(values) -> tuple[float, str]:
    """Highest listed percentile with TAIL_BEYOND samples above it (nearest rank).

    Below 40 samples none qualifies, and the median stands in for the tail.
    """
    s = sorted(values)
    for p in TAIL_PERCENTILES:
        rank = math.ceil(p / 100.0 * len(s))
        if len(s) - rank >= TAIL_BEYOND:
            return s[rank - 1], f"p{p:g}"
    return statistics.median(s), f"median ({len(s)} samples, too few for a tail)"


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu": cpu, "nproc": os.cpu_count(),
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def ms(ns) -> float:
    return ns / 1e6


# ---------------------------------------------------------------- runs

class Tally:
    """Timing samples per op and the gate's verdicts over a run."""

    def __init__(self):
        self.samples: dict[str, list[int]] = {op: [] for op in OPS}
        self.attempted = 0
        self.failed = 0
        self.first_error: dict[str, str] = {}

    def add(self, case, oc: Outcome) -> None:
        bad = judge(case, oc)
        for op in OPS:
            self.attempted += 1
            if op in oc.ns:
                self.samples[op].append(oc.ns[op])
            if op in bad:
                self.failed += 1
                self.first_error.setdefault(op, f"rep {case.rep}: {bad[op]}")


def run_loop(wl, seconds: float, body) -> int:
    """Call ``body(rep)`` until ``seconds`` passed and a cycle is complete."""
    deadline = time.perf_counter() + seconds
    rep = 0
    while rep % wl.cycle or time.perf_counter() < deadline:
        body(rep)
        rep += 1
    return rep


def end_to_end(args, wl):
    setups = measure_setups(args)
    setup_once(wl, args.seed)
    tally = Tally()

    def body(rep):
        case = inputs.make_case(wl, args.seed, rep)
        tally.add(case, run_ops(case))

    reps = run_loop(wl, args.seconds, body)
    s = tally.samples
    ssn_tail, ssn_q = tail(s["ssn"])
    rf_tail, rf_q = tail(s["rootfind"])
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ssn_ms_p50": (ms(statistics.median(s["ssn"])), "ms"),
        "ssn_ms_tail": (ms(ssn_tail), "ms"),
        "ssn_melem_per_s": (wl.n * len(s["ssn"]) / (sum(s["ssn"]) / 1e9) / 1e6, "Melem/s"),
        "rootfind_ms_p50": (ms(statistics.median(s["rootfind"])), "ms"),
        "rootfind_ms_tail": (ms(rf_tail), "ms"),
        "prox_ms_p50": (ms(statistics.median(s["prox"])), "ms"),
        "jac_ms_p50": (ms(statistics.median(s["jac"])), "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    notes = [f"setup_s is the median of {len(setups)} fresh processes",
             "samples per op: " + ", ".join(f"{op} {len(v)}" for op, v in s.items()),
             f"tails: ssn {ssn_q}, rootfind {rf_q}"]
    return reps, tally, metrics, notes


class Counts:
    """Exact work counts read off the public results of traced solves."""

    def __init__(self):
        self.iterations: list[int] = []
        self.unit_steps: list[int] = []
        self.evaluations: list[int] = []

    def add(self, oc: Outcome) -> None:
        ssn, rf = oc.out.get("ssn"), oc.out.get("rootfind")
        if ssn is not None and ssn.report is not None:
            steps = ssn.report.step_trace
            self.iterations.append(len(steps))
            self.unit_steps.append(sum(st.unit_step for st in steps))
        if rf is not None:
            self.evaluations.append(rf.evaluations)


def traced_ops(case, tracer, counts: Counts, tally: Tally) -> Outcome:
    """Run the ops of ``case`` with every target wrapped in spans."""
    with tracer.installed():
        oc = run_ops(case, tracer)
    counts.add(oc)
    tally.add(case, oc)
    return oc


def traced_case(wl, seed: int, rep: int, tracer):
    """Build instance ``rep`` with its validation under a ``core.instance`` span."""
    with tracer.installed():
        return inputs.make_case(wl, seed, rep)


def per_layer(args, wl):
    setup_once(wl, args.seed)
    tally = Tally()
    tracer = spans.Tracer()
    counts = Counts()
    plain_ssn, traced_ssn = [], []

    def body(rep):
        case = traced_case(wl, args.seed, rep, tracer)
        # Alternate which pass runs first, so neither always meets warm caches.
        for traced in ((False, True) if rep % 2 == 0 else (True, False)):
            if traced:
                traced_ssn.append(traced_ops(case, tracer, counts, tally).ns["ssn"])
            else:
                oc = run_ops(case)
                tally.add(case, oc)
                plain_ssn.append(oc.ns["ssn"])

    reps = run_loop(wl, args.seconds, body)
    sm = spans.Summary(tracer)
    iterations, evaluations = counts.iterations, counts.evaluations
    total_iters = sum(iterations)
    unit_steps = sum(counts.unit_steps)

    def per_call(layer):
        return ms(sm.busy_ns[layer] / sm.calls[layer]) if sm.calls[layer] else 0.0

    cone_ssn = sm.op_calls[("op.ssn", "isotonic.project_cone")]
    blocks = sm.counts["isotonic.project_cone"]
    op_ns = sum(sm.busy_ns[spans.OP_PREFIX + op] for op in OPS)
    glue_ns = sum(sm.self_ns[spans.OP_PREFIX + op] for op in OPS)
    metrics = {
        "core.signed_sort.ms": (per_call("core.signed_sort"), "ms"),
        "core.signed_sort.calls": (sm.calls["core.signed_sort"] / reps, "count"),
        "core.apply_inverse.ms": (per_call("core.apply_inverse"), "ms"),
        "core.apply_inverse.calls": (sm.calls["core.apply_inverse"] / reps, "count"),
        "core.instance.ms": (ms(sm.busy_ns["core.instance"]) / reps, "ms"),
        "isotonic.project_cone.ms": (per_call("isotonic.project_cone"), "ms"),
        "isotonic.project_cone.calls_per_ssn": (cone_ssn / reps, "count"),
        "isotonic.project_cone.calls_per_rootfind": (
            sm.op_calls[("op.rootfind", "isotonic.project_cone")] / reps, "count"),
        "isotonic.blocks_per_n": (statistics.fmean(blocks) if blocks else 0.0, "ratio"),
        "ssn.iterations": (total_iters / len(iterations) if iterations else 0.0, "count"),
        "ssn.iterations_max": (max(iterations, default=0), "count"),
        "ssn.trials_per_iter": ((cone_ssn - reps) / total_iters if total_iters else 0.0,
                                "count"),
        "ssn.unit_step_frac": (unit_steps / total_iters if total_iters else 0.0, "ratio"),
        "projector.project_ball.self_ms": (
            ms(sm.self_ns["projector.project_ball"]) / reps, "ms"),
        "jacobian.cone_jacobian.ms": (per_call("jacobian.cone_jacobian"), "ms"),
        "jacobian.cone_jacobian.calls": (sm.calls["jacobian.cone_jacobian"] / reps, "count"),
        "jacobian.curvature.ms": (per_call("jacobian.curvature"), "ms"),
        "jacobian.curvature.calls": (sm.calls["jacobian.curvature"] / reps, "count"),
        "jacobian.ball_jacobian.ms": (per_call("jacobian.ball_jacobian"), "ms"),
        "jacobian.apply_ball_jacobian.ms": (per_call("jacobian.apply_ball_jacobian"), "ms"),
        "rootfind.evaluations": (statistics.fmean(evaluations) if evaluations else 0.0,
                                 "count"),
        "projector.prox_owl.ms": (per_call("projector.prox_owl"), "ms"),
        "trace.overhead_frac": (statistics.median(traced_ssn)
                                / statistics.median(plain_ssn) - 1.0, "ratio"),
        "trace.unaccounted_frac": (glue_ns / op_ns if op_ns else 0.0, "ratio"),
    }
    for module in ("core", "isotonic", "jacobian", "ssn", "rootfind", "projector"):
        metrics[f"{module}.busy_ms"] = (ms(sm.module_busy_ns[module]) / reps, "ms")
        metrics[f"{module}.self_ms"] = (ms(sm.module_self_ns[module]) / reps, "ms")
    notes = [f"op time {ms(op_ns):.3f} ms = library self "
             f"{ms(sum(sm.module_self_ns.values())):.3f} ms + benchmark glue "
             f"{ms(glue_ns):.3f} ms",
             f"spans {len(tracer.layer)}, traced instances {reps}"]
    if tracer.missing:
        notes.append("absent (0 calls): " + ", ".join(sorted(tracer.missing)))
    return reps, tally, metrics, notes


# ---------------------------------------------------------------- main

def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print 'ready' and exit (times setup_s)")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = inputs.WORKLOADS[args.workload]
    if args.setup_probe:
        setup_once(wl, args.seed)
        print("ready", flush=True)
        return 0

    print(f"# owlball benchmark: workload {wl.name} (n = {wl.n}), seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print("# env " + json.dumps(environment()))
    reps, tally, metrics, notes = (per_layer if args.trace else end_to_end)(args, wl)
    print(f"# instances {reps}, {reps // wl.cycle} full cycles of {wl.cycle}")
    for note in notes:
        print(f"# {note}")
    # failed_frac is printed but kept out of the JSON metrics: a correct
    # program makes it 0, and the JSON carries failed and attempted.
    rows = dict(metrics, failed_frac=(tally.failed / tally.attempted, "ratio"))
    for name, (value, unit) in rows.items():
        print(f"{name:42s} {value:14.6g} {unit}")
    print(f"# ops attempted {tally.attempted}, failed {tally.failed}")
    for op, err in tally.first_error.items():
        print(f"# first failure of {op}, {err}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
