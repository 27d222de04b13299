"""Semismooth Newton method for the scalar dual of the cone subproblem.

Projecting a sorted vector ``w`` onto the intersection of the monotone
nonnegative cone with the hyperplane ``<lam, x> = tau`` reduces, by
dualizing the single linear constraint, to the one-dimensional concave
maximization of

    phi(y) = -( 0.5 ||Pi_C(y lam + w)||^2 - y tau - 0.5 ||w||^2 )

(we minimize ``phi`` as written, which is convex).  Its derivative
``phi'(y) = <Pi_C(y lam + w), lam> - tau`` is nondecreasing, piecewise
affine and semismooth, with a unique root ``y*``; the primal solution is
``x* = Pi_C(y* lam + w)``.  The solver finds that root and never
evaluates ``phi`` itself.

Each iteration projects once onto the cone, reads the curvature
``M = lam.T H lam`` off the resulting blocks (see
:func:`block_curvature`; no Jacobian is built) and proposes the Newton
step ``-phi'/M`` (or, on the flat piece where the projection vanishes
and ``M = 0``, a plain gradient step ``-phi'`` taken from the end of
that piece or beyond).  Every point evaluated so far narrows a sign
bracket ``lo < y* < hi`` with ``phi'(lo) < 0 < phi'(hi)``, starting
from the whole line.  A proposal strictly inside the bracket is taken;
otherwise the secant of the bracket's ends is, and the bracket's
midpoint if that falls outside too.  This is the safeguarded Newton
method of Numerical Recipes' ``rtsafe``: every step stays in a
shrinking bracket, so the iteration converges from any start, and near
the root the active piece is identified and a single full Newton step
lands on ``y*`` up to roundoff, so it terminates in a handful of
iterations regardless of n.  No step is ever rejected, so an iteration
costs exactly one cone projection.

The usual start is ``y = 0`` with ``w`` the sorted magnitudes, which lie
in the cone.  When they strictly decrease, every block there is a
singleton, so ``phi'(0) = <w, lam> - tau`` and ``M = <lam, lam>`` (less
a zero last entry) need no projection at all.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SignedSort, Weights, sorted_dual_norm
from .isotonic import ConeProjection, positive_block_sums, project_cone, strictly_decreasing

__all__ = [
    "SsnParams",
    "StepRecord",
    "SsnReport",
    "dual_gradient",
    "residual",
    "block_curvature",
    "solve",
]

# Step kinds recorded in StepRecord.kind.
NEWTON = "newton"          # -phi'/M, taken as is
GRADIENT = "gradient"      # -phi' where M = 0, taken as is
SECANT = "secant"          # the secant of the bracket's ends
BISECTION = "bisection"    # the bracket's midpoint


@dataclass(frozen=True)
class SsnParams:
    """Solver knobs.

    eps : stop when ``residual(phi'(y), tau) <= eps``.
    max_iter : iteration cap; hitting it is reported, not raised.
    y0 : starting dual point.

    The globalization (a sign bracket on ``phi'``) has no knobs.
    """

    eps: float = 1e-12
    max_iter: int = 100
    y0: float = 0.0

    def __post_init__(self):
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not np.isfinite(self.y0):
            raise ValueError(f"y0 must be finite, got {self.y0}")


@dataclass(frozen=True)
class StepRecord:
    """One step: state at the step's start plus the kind of step taken.

    ``kind`` is one of ``"newton"``, ``"gradient"``, ``"secant"`` and
    ``"bisection"`` (see the module docstring); ``unit_step`` is True
    for a Newton step taken as is.
    """

    y: float
    grad: float
    curvature: float
    kind: str

    @property
    def unit_step(self) -> bool:
        return self.kind == NEWTON


@dataclass(frozen=True)
class SsnReport:
    """Solve outcome.

    ``cone`` is the cone projection at ``y_star`` and ``x_star`` its
    point: exactly nonincreasing and nonnegative by construction,
    feasible for the hyperplane only up to ``residual_eta``.
    ``converged`` is False when the iteration cap was hit, or when no
    step could move ``y`` any more (see :func:`_next_point`); callers
    decide whether that is fatal.  ``sort`` is the signed sort that
    produced ``w``; :func:`owlball.project_ball` fills it in, a bare
    :func:`solve` leaves it None.  Together with ``cone`` it is all that
    :func:`owlball.ball_jacobian` needs.
    """

    y_star: float
    cone: ConeProjection = field(repr=False)
    iterations: int
    residual_eta: float
    converged: bool
    step_trace: list[StepRecord] = field(repr=False)
    sort: SignedSort | None = field(default=None, repr=False)

    @property
    def x_star(self) -> np.ndarray:
        return self.cone.x


def dual_gradient(y: float, w, weights: Weights, tau: float):
    """``phi'(y)``, and the cone projection ``Pi_C(y lam + w)`` it was
    read from, whose blocks give the curvature at the same ``y``.  Both
    solvers evaluate ``phi'`` here."""
    w = np.asarray(w, dtype=np.float64)
    p = project_cone(y * weights.values + w)
    return float(np.dot(p.x, weights.values)) - tau, p


def residual(grad: float, tau: float) -> float:
    """The stop rule's residual ``|phi'| / (1 + tau)``: relative to
    ``tau`` for ``tau`` well above 1, absolute below.  Both solvers stop
    when it drops to their tolerance."""
    return abs(grad) * (1.0 / (1.0 + tau))


def block_curvature(p: ConeProjection, lam) -> float:
    """Curvature ``M = lam.T H lam`` at ``p``, read off its blocks.

    ``H``, the cone projector's Jacobian on the piece of ``p``, averages
    each block with a positive value and zeroes the zero block, so

        M = sum over blocks with value > 0 of (sum of lam over block)**2 / length.

    Each pooled block's sum (:func:`positive_block_sums`) enters the dot
    as ``sum / sqrt(length)``; O(n).  Equals
    ``lam @ apply_cone_jacobian(cone_jacobian(p), lam)`` up to roundoff,
    and is exactly ``0.0`` when ``p.x`` is all zero.
    """
    terms, pooled = positive_block_sums(p, lam)
    if pooled.size:
        terms[pooled] /= np.sqrt(p.block_lengths[pooled])
    return float(np.dot(terms, terms))


def solve(w, weights: Weights, tau: float, params: SsnParams | None = None) -> SsnReport:
    """Drive ``phi'`` to zero; return the dual root and primal point.

    ``w`` need not be sorted or nonnegative (the dual is well defined
    for any vector); the ball projector passes the sorted magnitudes.

    Convergence is checked before stepping.  Each iteration performs
    exactly one projection, at the point it steps to.  The start costs
    one more, except at ``y0 = 0`` with ``w`` strictly decreasing and
    ``w[-1] >= 0``, where ``phi'`` and ``M`` are read off ``w`` directly;
    there a start that is already converged still costs one projection,
    for the report's ``cone``.
    """
    if params is None:
        params = SsnParams()
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size != weights.n:
        raise ValueError(f"w must be a vector of length {weights.n}")
    tau = float(tau)
    if not tau > 0.0:
        raise ValueError(f"tau must be positive, got {tau}")

    lam = weights.values

    y = float(params.y0)
    if y == 0.0 and w[-1] >= 0.0 and strictly_decreasing(w):
        # Pi_C(w) = w with singleton blocks; the zero block, if any, is
        # the last singleton and adds no curvature.
        p = None
        grad = float(np.dot(w, lam)) - tau
        live = lam[:w.size - int(w[-1] == 0.0)]
        m = float(np.dot(live, live))
    else:
        grad, p = dual_gradient(y, w, weights, tau)
        m = None
    eta = residual(grad, tau)
    lo, grad_lo, hi, grad_hi = -np.inf, np.nan, np.inf, np.nan
    flat_end = -np.inf      # found when the flat piece is first reached
    trace: list[StepRecord] = []

    while eta > params.eps and len(trace) < params.max_iter:
        if m is None:
            m = block_curvature(p, lam)
        if m == 0.0 and flat_end == -np.inf:
            flat_end = -sorted_dual_norm(w, lam)
        if grad < 0.0:
            lo, grad_lo = y, grad
        else:
            hi, grad_hi = y, grad
        y_next, kind = _next_point(y, grad, m, lo, grad_lo, hi, grad_hi, flat_end)
        if kind is None:
            break           # no float left to step to
        trace.append(StepRecord(y=y, grad=grad, curvature=m, kind=kind))
        y = y_next
        grad, p = dual_gradient(y, w, weights, tau)
        eta = residual(grad, tau)
        m = None

    if p is None:
        p = project_cone(y * lam + w)
    return SsnReport(y_star=y, cone=p, iterations=len(trace),
                     residual_eta=eta, converged=eta <= params.eps,
                     step_trace=trace)


def _next_point(y, grad, m, lo, grad_lo, hi, grad_hi, flat_end=-np.inf):
    """The point the step from ``y`` goes to, and the step's kind.

    The Newton (or, where ``m = 0``, gradient) step when it lands
    strictly inside ``(lo, hi)``; else the secant of the bracket's ends;
    else its midpoint.  The gradient step starts at ``flat_end`` if
    ``y`` lies below it: that is the closed end of the flat piece where
    the projection vanishes, so ``phi'`` there is the same ``-tau`` and
    the step leaves the piece at once, rather than climb it by ``tau``
    per iteration or stop on its end.  The kind
    is None when no step can leave ``y``: ``lo`` and ``hi`` are adjacent
    floats, or the step is below the roundoff of ``y`` while the far end
    of the bracket is still unknown.
    """
    # M = 0 iff the projection is zero (lam[0] > 0 forces the leading
    # coordinate into a live block otherwise): the Newton direction is
    # undefined there, so the gradient step (of size tau) stands in.
    if m > 0.0:
        y_next, kind = y - grad / m, NEWTON
    else:
        y_next, kind = max(y, flat_end) - grad, GRADIENT
    if lo < y_next < hi:
        return y_next, kind
    # y is one end of the bracket and the step points to the other, so
    # it misses only by overshooting a finite end or by not moving.
    if np.isfinite(lo) and np.isfinite(hi):
        y_next = lo - grad_lo * ((hi - lo) / (grad_hi - grad_lo))
        if lo < y_next < hi:
            return y_next, SECANT
        y_next = 0.5 * (lo + hi)
        if lo < y_next < hi:
            return y_next, BISECTION
    return y, None
