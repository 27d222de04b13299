"""Scalar root-finding baseline for the ball projection.

The classical route to the ball projection goes through the prox: the
map ``rho(mu) = owl_norm(prox_mu(b))`` is continuous, nonincreasing and
piecewise linear in ``mu``, equals the norm of ``b`` at ``mu = 0``, and
reaches zero at the dual norm ``mu = dual_norm(b)`` (the smallest prox
parameter that kills ``b``).  For an infeasible ``b`` the radius is
crossed exactly once, so Brent's method on ``g(mu) = rho(mu) - tau``
over ``[0, dual_norm(b)]`` recovers the projection.  Each trial ``mu``
costs one full prox evaluation, which is why the Newton solver on the
dual of the constrained formulation wins: it pays the same O(n) per
step but needs fewer steps.

Both bracketing endpoints are evaluated by a cone projection, and
``evaluations`` counts them.  ``g(0)`` projects the sorted magnitudes of
``b``, which already lie in the cone, so it costs a few streaming passes
and no PAVA pass.  ``g`` at the dual norm costs a full projection, whose
result is zero up to roundoff, so ``g`` is about ``-tau`` there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Instance, Weights, signed_sort, sorted_dual_norm
from .ssn import dual_gradient

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
    bracket_width : final bracketing-interval width.
    residual : |owl_norm(x) - tau| / (1 + tau) at acceptance.
    """

    mu_star: float
    x: np.ndarray
    evaluations: int
    bracket_width: float
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
    the ball projector for the general case.  Stops when the radius
    residual ``|g| / (1 + tau)`` drops to ``tol`` or the bracket
    collapses to ``4 * eps * dual_norm(b)``.  That residual is relative
    to ``tau`` only for ``tau`` well above 1; below 1 it is an absolute
    one, which a small ``tau`` meets before the radius is matched to
    ``tol``.  Since ``g`` is piecewise linear the final interpolation
    step typically lands on the root to full precision.  Raises
    :class:`NonConvergenceError` after ``max_evals`` prox evaluations.
    """
    tol = float(tol)
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lam = inst.weights.values
    tau = inst.tau
    sort, w = signed_sort(inst.b)
    norm_b = float(np.dot(w, lam))
    if norm_b <= tau:
        raise ValueError(
            "owl_norm(b) <= tau: b is already feasible and the radius "
            "equation has no root; call project_ball instead")

    hi = sorted_dual_norm(w, lam)
    evals = 0

    def g(mu: float):
        # The prox at mu is the cone projection of w - mu lam, so g is
        # the Newton solver's phi' at y = -mu.
        nonlocal evals
        evals += 1
        return dual_gradient(-mu, w, inst.weights, tau)

    inv_scale = 1.0 / (1.0 + tau)
    a, fa, pa = 0.0, *g(0.0)
    b, fb, pb = hi, *g(hi)
    if fb > 0.0:
        raise BracketError(
            f"g({hi}) = {fb} > 0: the dual-norm endpoint does not bracket "
            "the radius crossing")

    # Brent with inverse quadratic interpolation; the projection at each
    # named point rides along so the accepted root returns its primal
    # point without a final re-evaluation.
    eps = float(np.finfo(np.float64).eps)
    width_tol = 2.0 * eps * hi  # |half bracket| <= this means width <= 4 eps hi
    c, fc, pc = a, fa, pa
    d = e = b - a
    while evals < max_evals:
        if (fb > 0.0) == (fc > 0.0):
            c, fc, pc = a, fa, pa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, fa, pa = b, fb, pb
            b, fb, pb = c, fc, pc
            c, fc, pc = a, fa, pa
        xm = 0.5 * (c - b)
        if abs(fb) * inv_scale <= tol or abs(xm) <= width_tol or fb == 0.0:
            return RootfindReport(mu_star=b, x=sort.apply_inverse(pb.x),
                                  evaluations=evals,
                                  bracket_width=abs(c - b),
                                  residual=abs(fb) * inv_scale)
        if abs(e) >= width_tol and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p_num = 2.0 * xm * s
                q = 1.0 - s
            else:
                q = fa / fc
                r = fb / fc
                p_num = s * (2.0 * xm * q * (q - r) - (b - a) * (r - 1.0))
                q = (q - 1.0) * (r - 1.0) * (s - 1.0)
            if p_num > 0.0:
                q = -q
            p_num = abs(p_num)
            if 2.0 * p_num < min(3.0 * xm * q - abs(width_tol * q), abs(e * q)):
                e = d
                d = p_num / q
            else:
                d = xm
                e = d
        else:
            d = xm
            e = d
        a, fa, pa = b, fb, pb
        b = b + d if abs(d) > width_tol else b + (width_tol if xm > 0.0 else -width_tol)
        fb, pb = g(b)
    raise NonConvergenceError(
        f"no root to tolerance {tol} within {max_evals} prox evaluations")
