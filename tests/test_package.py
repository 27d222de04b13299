import dataclasses
import inspect
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import owlball

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))

PUBLIC = [
    "Weights", "Instance", "owl_norm", "dual_norm",
    "project_ball", "ProjectionResult", "prox_owl",
    "solve_root", "RootfindReport",
    "SsnParams", "SsnReport",
    "ball_jacobian", "apply_ball_jacobian", "BallJacobian",
    "__version__",
]


def test_public_surface_is_the_user_facing_calls():
    assert sorted(owlball.__all__) == sorted(PUBLIC)
    assert len(owlball.__all__) == len(set(owlball.__all__))
    for name in owlball.__all__:
        assert getattr(owlball, name) is not None


def test_public_solvers_settable_values_are_pinned():
    # As the names above: a knob cannot be added or come back unnoticed.
    assert list(inspect.signature(owlball.solve_root).parameters) == ["inst", "tol"]
    assert [f.name for f in dataclasses.fields(owlball.SsnParams)] == [
        "eps", "y0"]


def test_rootfind_report_fields_are_pinned():
    # As the knobs above: both solvers report a stop, and a field
    # cannot be added or dropped unnoticed.
    assert [f.name for f in dataclasses.fields(owlball.RootfindReport)] == [
        "mu_star", "x", "evaluations", "residual", "stop"]


def test_ssn_report_fields_are_pinned():
    # As RootfindReport's: where the steps started is y0, or the trace's
    # first step, so no start field can come back unnoticed.
    assert [f.name for f in dataclasses.fields(owlball.SsnReport)] == [
        "y_star", "cone", "residual_eta", "stop", "step_trace", "sort"]


def test_step_record_fields_are_pinned():
    # As SsnReport's: each step says where it started, what it read there,
    # its kind and how many entries the projection at its landing took.
    assert [f.name for f in dataclasses.fields(owlball.ssn.StepRecord)] == [
        "y", "grad", "curvature", "kind", "projected"]


def test_cone_projection_record_is_pinned():
    # As SsnReport's fields: the one block record that a projection hands
    # the solver and the Jacobian, and the isotonic module's names, cannot
    # grow unnoticed.
    assert list(inspect.signature(owlball.isotonic.ConeProjection).parameters) == [
        "x", "block_starts", "lam_sums"]
    assert owlball.isotonic.__all__ == [
        "ConeProjection", "project_cone", "strictly_decreasing", "reduce_spans",
        "positive_block_sums", "repair_ties"]


def test_ball_jacobian_holds_one_array_of_length_n():
    # As the knobs above: a second per-coordinate array cannot come back
    # unnoticed.  This instance has 5 coordinates, 1 pooled block and 7
    # bins, so no other field can be n long by chance.
    inst = owlball.Instance([1.0, -2.0, 3.0, 3.0, 0.5],
                            owlball.Weights([3.0, 2.0, 2.0, 1.0, 0.5]), 3.0)
    s = owlball.ball_jacobian(inst, owlball.project_ball(inst).report)
    arrays = {f.name: getattr(s, f.name) for f in dataclasses.fields(s)}
    assert all(isinstance(a, np.ndarray) for a in arrays.values())
    assert [name for name, a in arrays.items() if a.size == inst.n] == ["label"]
    assert arrays["label"].shape == (inst.n,)


def test_test_only_readers_stay_out_of_the_package():
    # Only tests read a projection's tight set, its block values, the
    # cone Jacobian's matvec or the curvature at a projection; their
    # references live in tests/oracle.py.
    assert not hasattr(owlball.jacobian, "apply_cone_jacobian")
    assert not hasattr(owlball.isotonic, "active_set")
    assert not hasattr(owlball.isotonic.ConeProjection, "block_values")
    assert not hasattr(owlball.ssn, "block_curvature")


def test_demos_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # The filter pyproject.toml applies to the tests, applied to the demo.
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", str(demo)],
                          env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
