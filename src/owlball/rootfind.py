"""Scalar root-finding baseline for the ball projection.

The classical route to the ball projection goes through the prox: the
map ``rho(mu) = owl_norm(prox_mu(b))`` is continuous, nonincreasing and
piecewise linear in ``mu``, equals the norm of ``b`` at ``mu = 0``, and
reaches zero at the dual norm ``mu = dual_norm(b)`` (the smallest prox
parameter that kills ``b``).  For an infeasible ``b`` the radius is
crossed exactly once, so Brent's method (``scipy.optimize.brentq``) on
``rho(mu) - tau`` over ``[0, dual_norm(b)]`` recovers the projection.
Each trial ``mu`` costs one full prox evaluation, which is why the
Newton solver on the dual of the constrained formulation wins: it pays
the same O(n) per step but needs fewer steps.

brentq runs on ``t = mu / dual_norm(b)`` in ``[0, 1]`` and sees
``(rho - tau) / tau``, which is about ``-1`` at ``t = 1``.  Its
interpolation multiplies function values and divided differences, so
it is not scale-free: on the raw equation it falls back to bisection
once ``b`` is scaled to about 1e160 or more.  Scaled this way its
steps do not depend on the scale of ``b``.

``evaluations`` counts every point brentq evaluates, both bracketing
endpoints included.  ``t = 0`` projects the sorted magnitudes of ``b``,
which already lie in the cone, so it costs a few streaming passes and
no PAVA pass.  ``t = 1`` costs no projection either: there every prefix
sum of ``w - mu lam`` is nonpositive by the definition of the dual
norm, so the prox is zero and ``(rho - tau) / tau`` is ``-1``.  One
cumulative sum checks the sign: the prox's entries sum to at most the
largest prefix sum, so ``lam[0]`` times that sum bounds ``rho``.  At the
dual norm the bound is zero up to roundoff, and a dual norm too small
to kill ``b`` still shows as a bracket error.
Every later point projects only the coordinates ahead of the zero block
at the bracket's lower end in ``t``, as the Newton solver does below
its ``hi``.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np
from scipy.optimize import brentq

from .core import Instance, Weights, signed_sort, sorted_dual_norm
from .ssn import dual_gradient, residual

__all__ = [
    "BracketError",
    "NonConvergenceError",
    "RootfindReport",
    "dual_norm",
    "solve_root",
]

_MAX_EVALS = 200


class BracketError(RuntimeError):
    """The initial interval does not bracket the radius crossing."""


class NonConvergenceError(RuntimeError):
    """The evaluation budget ran out before the tolerance was met."""


@dataclass(frozen=True)
class RootfindReport:
    """Root-finder outcome.

    mu_star : prox parameter at the accepted root, in [0, dual_norm(b)].
    x : the projection, back in original coordinates.
    evaluations : prox evaluations performed.
    residual : ``ssn.residual(owl_norm(x) - tau, tau)`` at acceptance.
    """

    mu_star: float
    x: np.ndarray
    evaluations: int
    residual: float


def dual_norm(y, weights: Weights) -> float:
    """Dual of the ordered weighted L1 norm.

    The unit ball of the primal norm has extreme points supported on the
    k largest magnitudes with equal weights ``1 / (lam_1 + ... + lam_k)``,
    so the dual norm is the best ratio of leading-magnitude sums to
    leading-weight sums:

        max_k (|y|^(1) + ... + |y|^(k)) / (lam_1 + ... + lam_k).
    """
    y = np.asarray(y, dtype=np.float64)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    if y.ndim != 1 or y.size != weights.n:
        raise ValueError(f"y must be a vector of length {weights.n}")
    return sorted_dual_norm(np.sort(np.abs(y))[::-1], weights.values)


def solve_root(inst: Instance, tol: float = 1e-9,
               max_evals: int = _MAX_EVALS) -> RootfindReport:
    """Brent's method on the radius equation ``owl_norm(prox_mu(b)) = tau``.

    Requires an infeasible instance (norm of ``b`` strictly above the
    radius); feasible inputs have no root to find and are rejected, use
    the ball projector for the general case.  Runs ``brentq`` on
    ``t = mu / dual_norm(b)`` (see the module docstring).  Stops on the
    Newton solver's rule, :func:`owlball.ssn.residual` ``<= tol`` (the
    radius matched to ``tol`` relative to ``tau``), or when the bracket
    on ``t`` collapses to about ``4 * eps``.  Since the radius equation
    is piecewise linear the final interpolation step typically lands on
    the root to full precision.  The report holds the evaluated point with the smallest
    ``|owl_norm(x) - tau|`` and its projection, so nothing is evaluated
    twice.  Raises :class:`NonConvergenceError` after ``max_evals`` prox
    evaluations.
    """
    tol = float(tol)
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    tau = inst.tau
    sort, w = signed_sort(inst.b)
    if float(np.dot(w, inst.weights.values)) <= tau:
        raise ValueError(
            "owl_norm(b) <= tau: b is already feasible and the radius "
            "equation has no root; call project_ball instead")

    hi = sorted_dual_norm(w, inst.weights.values)
    track = SimpleNamespace(evals=0, abs_grad=np.inf, t=0.0, cone=None, top=w.size)
    try:
        _, info = brentq(_scaled_gap, 0.0, 1.0, xtol=4.0 * np.finfo(np.float64).eps,
                         maxiter=max(max_evals - 2, 0), full_output=True,
                         disp=False, args=(w, inst.weights, tau, hi, tol, track))
    except ValueError as exc:   # the gap is positive at t = 0 and at t = 1
        raise BracketError(
            f"phi' at mu = {hi} is positive: the dual-norm endpoint does "
            "not bracket the radius crossing") from exc
    if not info.converged:
        raise NonConvergenceError(
            f"no root to tolerance {tol} within {max_evals} prox evaluations")
    return RootfindReport(mu_star=track.t * hi, x=sort.apply_inverse(track.cone.x),
                          evaluations=track.evals,
                          residual=residual(track.abs_grad, tau))


def _scaled_gap(t, w, weights, tau, hi, tol, track):
    """brentq's function: ``phi'(-t * hi) / tau``, or exactly ``0.0``
    where the stop rule holds, which makes brentq stop there.

    The prox at ``mu = t * hi`` is the cone projection of ``w - mu lam``,
    so this is the Newton solver's ``phi'`` at ``y = -mu``.  ``track``
    counts the evaluations and keeps the one with the smallest
    ``|phi'|``, with its projection.  It also keeps where the zero block
    starts at the last point with a positive gap: that point has the
    largest such ``t`` and is the bracket's lower end, every later point
    lies strictly beyond it, so later projections are zero from there on
    (see :func:`owlball.ssn.dual_gradient`).  At ``t = 1`` the projection
    is zero (module docstring): once its bound on ``rho`` is below
    ``tau``, which makes the gap negative, ``-1.0`` is returned
    unprojected and never kept as the best point, since it has no cone
    and its ``|phi'|`` is all of ``tau``.  All state comes in through
    brentq's ``args``: scipy's NaN guard keeps the function in a
    reference cycle after the call, so a closure would hold n-sized
    arrays until the next garbage collection.
    """
    track.evals += 1
    if t == 1.0:
        sums = weights.values * -hi
        sums += w
        if weights.values[0] * np.cumsum(sums, out=sums).max() < tau:
            return -1.0
    grad, p = dual_gradient(-t * hi, w, weights, tau, track.top)
    if grad > 0.0:
        track.top = p.zero_start
    if abs(grad) < track.abs_grad:
        track.abs_grad, track.t, track.cone = abs(grad), t, p
    return 0.0 if residual(grad, tau) <= tol else grad / tau
