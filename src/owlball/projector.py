"""Projection onto the ball of an ordered weighted L1 norm.

``project_ball`` reduces the ball projection to the sorted-cone
subproblem: one signed sort of the input, one Newton solve on the
scalar dual, one inverse sort of the result.  Inputs already inside the
ball are returned unchanged without invoking the solver.

``prox_owl`` is the proximal operator of ``mu * owl_norm``; by Moreau it
is the same machinery with the hyperplane dual pinned at ``mu`` instead
of solved for, so it needs no iteration at all.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .core import (INSIDE_RTOL, Instance, Weights, all_finite, inside_ball, signed_sort,
                   vector_and_weights)
from .isotonic import project_cone
from .ssn import SsnParams, SsnReport, solve

__all__ = ["ProjectionResult", "project_ball", "prox_owl"]


@dataclass(frozen=True)
class ProjectionResult:
    """Projection plus provenance.

    ``report`` is the dual solver's report, or None when the input was
    already feasible and no solve happened (``trivial`` flags this).
    ``report.sort``, the signed sort of the input, maps the solver's
    sorted-space quantities back to the original coordinates; it holds
    ``inst.b`` itself, which is read-only.
    """

    x: np.ndarray
    report: SsnReport | None

    @property
    def trivial(self) -> bool:
        return self.report is None


def project_ball(inst: Instance, params: SsnParams | None = None) -> ProjectionResult:
    """Euclidean projection of ``inst.b`` onto ``{x : owl_norm(x) <= tau}``.

    The feasibility gate reuses the sort: the norm of ``b`` is the
    weighted sum of its sorted magnitudes.  The ball is closed, and
    slightly-outside inputs (within a relative ``INSIDE_RTOL``, one part
    in 1e15, of the radius) are treated as feasible rather than solved;
    ``trivial`` on the result reports that.  Outside the ball, a norm or
    dual norm of ``b`` that overflows float64 raises ``ValueError``.

    A non-converged solve is not raised here; it is visible on the
    returned report and left to the caller's policy.  The report carries
    the sort, so :func:`owlball.ball_jacobian` can reuse it.
    """
    sort, w = signed_sort(inst.b)
    if inside_ball(w, inst.weights.values, inst.tau * (1.0 + INSIDE_RTOL)):
        return ProjectionResult(x=inst.b.copy(), report=None)
    report = replace(solve(w, inst.weights, inst.tau, params), sort=sort)
    return ProjectionResult(x=sort.apply_inverse(report.x_star), report=report)


def prox_owl(v, weights: Weights, mu: float) -> np.ndarray:
    """prox of ``mu * owl_norm`` at ``v``: shrink sorted magnitudes by
    ``mu * weights`` and project onto the monotone nonnegative cone.

    ``mu = 0`` is the identity; negative or non-finite ``mu`` and
    non-finite entries of ``v`` are rejected.
    """
    v, weights = vector_and_weights(v, weights, "v")
    if not all_finite(v):
        raise ValueError("v must contain only finite values")
    mu = float(mu)
    if not 0.0 <= mu < np.inf:
        raise ValueError(f"mu must be nonnegative and finite, got {mu}")
    if mu == 0.0:
        return v.copy()
    sort, w = signed_sort(v)
    w -= mu * weights.values
    return sort.apply_inverse(project_cone(w).x)
