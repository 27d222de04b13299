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
:func:`block_curvature`; no Jacobian is built) and takes the Newton
step ``-phi'/M`` (or, on the flat piece where the projection vanishes
and ``M = 0``, a gradient step ``-phi'`` from the end of that piece).
No safeguard is needed, because ``phi'`` is convex.  *Lemma:* ``M(y)``
is nondecreasing, since the blocks of ``Pi_C(y lam + w)`` only coarsen
as ``y`` falls: a block's term ``(sum of lam)**2 / length`` is at most
the sum of its parts' terms (Cauchy-Schwarz), and a growing zero block
only drops terms.  Each tangent of ``phi'`` thus lies below it, so a
Newton step from either side lands at or above ``y*``, and from there
the iterates fall monotonically onto ``y*``.  Near the root the active
piece is identified and one full Newton step lands on ``y*`` up to
roundoff, in a handful of iterations regardless of n.  *Stop rule:*
converged once ``|phi'| / tau <= eps``, or once the Newton step is a
no-op, ``|step| <= 8 * eps_mach * |y|`` with ``0 < M < inf`` (finite
termination, which also holds where the roundoff of ``phi'`` exceeds
``eps * tau``); both tests are scale-free.  The solve stops unconverged
at the iteration cap or when a step would leave the sign bracket
``lo < y* < hi`` of the points evaluated so far, which only roundoff
can cause, or an ``M`` that overflowed to inf: with weights from about
1e154 on, the zero step it gives is no no-op and leaves the bracket.
No step is ever rejected, so an iteration costs exactly one cone
projection (a no-op costs none).  It covers
only the coordinates ahead of the zero block of the projection at
``hi``: every step lands below ``hi``, and ``Pi_C`` is order-preserving,
so the rest stays zero (see :func:`dual_gradient`).  With constant
weights every point projected is nonincreasing and costs no PAVA pass.

The usual start is ``y = 0`` with ``w`` the sorted magnitudes, which lie
in the cone.  When they strictly decrease, every block there is a
singleton, so ``phi'(0) = <w, lam> - tau`` and ``M = <lam, lam>`` (less
a zero last entry) need no projection at all.

*Model start.*  For plateau weights, ``lam = lam0 * 1[:k]`` (the L1
norm, the Linf norm and the top-k norms, see ``Weights.plateau``), the
first step from a start above the root at ``y = 0`` goes on from the
Newton step ``y1 = -phi'(0) / M(0)`` to ``y_s = min(r1, r2, y1)``, where
``r1``, ``r2`` are the roots of two lower bounds on ``phi'`` that need
no PAVA pass (:func:`plateau_model_root`): the sort-based L1-ball
threshold of ``Pi_C(w)`` at radius ``tau / lam0``, exact for the L1
norm, and ``lam0`` times the leading block mean ``x[0]``, exact for the
Linf norm.  A root of a lower bound, like a Newton step, lies at or
above ``y*``, so ``y* <= y_s <= y1`` and the step stays in the bracket.
Right of its root the Newton map of a convex ``phi'`` is nondecreasing,
so every iterate from ``y_s`` is at or below the matching one from
``y1``: the model step never leaves more steps to take than the plain
Newton step, and for the L1 and Linf norms it lands on the root.  It is
recorded as a Newton step, with one projection like any other.  Other
weights skip it, as does a caller's own start ``y0 != 0``; computing
the two roots is O(n) and would not pay there.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SignedSort, Weights, all_finite, sorted_dual_norm
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
NEWTON = "newton"          # -phi'/M
GRADIENT = "gradient"      # -phi' from the flat piece's end, where M = 0

NOOP_RTOL = 8.0 * np.finfo(np.float64).eps   # a Newton step below this * |y| is a no-op

# Stops recorded in SsnReport.stop; the first two count as converged.
RESIDUAL = "residual"      # residual(phi', tau) <= eps
NOOP = "noop"              # the next Newton step is a no-op
BRACKET = "bracket"        # roundoff sent a step out of the sign bracket
CAP = "cap"                # _MAX_ITER steps taken

# Iteration cap; hitting it is reported, not raised.  A solve takes a
# handful of steps whatever n is (module docstring).
_MAX_ITER = 100

@dataclass(frozen=True)
class SsnParams:
    """Solver knobs.

    eps : converged when ``residual(phi'(y), tau) <= eps`` (or on a no-op).
    y0 : starting dual point.

    The iteration itself has no knobs (see the module docstring).
    """

    eps: float = 1e-12
    y0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.eps < np.inf:
            raise ValueError(f"eps must be positive and finite, got {self.eps}")
        if not np.isfinite(self.y0):
            raise ValueError(f"y0 must be finite, got {self.y0}")


@dataclass(frozen=True)
class StepRecord:
    """One step: state at the step's start plus the kind of step taken.

    ``kind`` is ``"newton"``, or ``"gradient"`` on the flat piece where
    ``M = 0`` (see the module docstring); ``unit_step`` is True for a
    Newton step.  With plateau weights, the first step from 0 goes on
    to the model root when that lies lower (the module docstring's
    model start); it is a ``"newton"`` step too.
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
    feasible for the hyperplane only up to ``residual_eta`` (relative to
    ``tau``).  ``stop`` says which stop fired: ``"residual"`` (it met
    ``eps``), ``"noop"`` (the next Newton step was a no-op; the residual
    may then exceed ``eps`` by the roundoff of ``phi'``; once ``x_star``
    has subnormal entries, each is off by up to one subnormal ulp, so it
    can reach about ``5e-324 * n / tau``), ``"bracket"``
    (roundoff sent a step out of the sign bracket) or ``"cap"`` (the
    iteration cap).  ``converged`` is True for the first two; callers
    decide whether the others are fatal.  ``iterations`` is
    ``len(step_trace)``.  ``sort`` is the signed sort that produced
    ``w``; :func:`owlball.project_ball` fills it in, a bare
    :func:`solve` leaves it None.  It holds only ``perm`` and the
    instance's ``b``, by reference (``b`` is read-only, and must not
    change while the sort is in use), and reads the signs off ``b``.
    Together with ``cone`` it is all that :func:`owlball.ball_jacobian`
    needs.
    """

    y_star: float
    cone: ConeProjection = field(repr=False)
    residual_eta: float
    stop: str
    step_trace: list[StepRecord] = field(repr=False)
    sort: SignedSort | None = field(default=None, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop in (RESIDUAL, NOOP)

    @property
    def x_star(self) -> np.ndarray:
        return self.cone.x

    @property
    def iterations(self) -> int:
        return len(self.step_trace)


def dual_gradient(y: float, w, weights: Weights, tau: float, top: int | None = None):
    """``phi'(y)``, and the cone projection ``Pi_C(y lam + w)`` it was
    read from, whose blocks give the curvature at the same ``y``.  Both
    solvers evaluate ``phi'`` here.

    ``top`` is where the zero block starts in the projection at some
    point at or above ``y`` (``n`` if omitted).  ``Pi_C`` is
    order-preserving and ``y lam + w`` falls as ``y`` falls, so the
    projection at ``y`` is zero from ``top`` on too, and only the first
    ``top`` coordinates are projected.  The projection is still returned
    at full length, and ``phi'`` is its dot with all of ``lam``.
    """
    w = np.asarray(w, dtype=np.float64)
    lam = weights.values
    top = lam.size if top is None else top
    p = project_cone(y * lam[:top] + w[:top], lam.size)
    return float(np.dot(p.x, lam)) - tau, p


def residual(grad: float, tau: float) -> float:
    """The stop rule's residual ``|phi'| / tau``, relative to the radius
    at every scale.  Both solvers stop when it drops to their
    tolerance."""
    return abs(grad) / tau


def block_curvature(p: ConeProjection, lam) -> float:
    """Curvature ``M = lam.T H lam`` at ``p``, read off its blocks.

    ``H``, the cone projector's Jacobian on the piece of ``p``, averages
    each block with a positive value and zeroes the zero block, so

        M = sum over blocks with value > 0 of (sum of lam over block)**2 / length.

    Each pooled block's sum (:func:`positive_block_sums`) enters the dot
    as ``sum / sqrt(length)``; O(n).  Equals ``lam @ H lam`` up to
    roundoff, and is exactly ``0.0`` when ``p.x`` is all zero.
    """
    terms, pooled = positive_block_sums(p, lam)
    if pooled.size:
        terms[pooled] /= np.sqrt(p.block_lengths[pooled])
    with np.errstate(over="ignore"):    # inf past about 1e154; solve checks
        return float(np.dot(terms, terms))


def plateau_model_root(w, v, weights: Weights, tau: float) -> float:
    """Model root of the Newton solve's first step for plateau weights
    ``lam = lam0 * 1[:k]``: ``min(r1, r2)``, the roots of two lower
    bounds on ``phi'(y) = <Pi_C(y lam + w), lam> - tau`` for ``y <= 0``
    that need no cone projection.  ``v = Pi_C(w)``, and
    ``phi'(0) = lam0 * sum(v[:k]) - tau`` must be positive.

    ``Pi_C`` is order-preserving, ``y lam >= y lam0`` for ``y <= 0``,
    and the projection of ``w`` shifted by a constant is ``v`` shifted
    and clamped, so ``phi' >= psi1(y) = lam0 * sum((v + y lam0)_+[:k])
    - tau``.  Its root is ``-s / lam0`` for the L1-ball threshold ``s``
    of ``v[:k]`` at radius ``z = tau / lam0`` (Duchi et al. 2008, Condat
    2016), ``s = max_t (cumsum(v)[t] - z) / (t + 1)`` over ``t < k``.  It
    is exact for the L1 norm.

    Every entry of the projection is nonnegative and its first is the
    largest prefix mean of ``y lam + w`` or zero, so ``phi' >= psi2(y) =
    lam0 * max_t mean((y lam + w)[:t+1]) - tau``, exact for the Linf
    norm.  Its root is ``min_t ((t + 1) z - cumsum(w)[t]) / cumsum(lam)[t]``
    with ``cumsum(lam)[t] = lam0 * min(t + 1, k)``: the max-ratio formula
    of :func:`sorted_dual_norm`, which it is at ``tau = 0`` (negated).

    So both roots are at least ``y*``, and ``r1 < 0`` since
    ``psi1(0) = phi'(0) > 0``: the model root lies in ``[y*, 0)``.
    """
    lam0, k = float(weights.values[0]), weights.plateau
    z = tau / lam0
    count = np.arange(1, w.size + 1, dtype=np.float64)
    sums = np.cumsum(w)
    # A prefix of a cumulative sum is bitwise the prefix's own.
    head = sums[:k] if v is w else np.cumsum(v[:k])
    r1 = np.min((z - head) / count[:k]) / lam0
    gaps = count * z
    gaps -= sums
    gaps /= np.minimum(count, k, out=count)
    r2 = np.min(gaps) / lam0
    return float(min(r1, r2))


def solve(w, weights: Weights, tau: float, params: SsnParams | None = None) -> SsnReport:
    """Drive ``phi'`` to zero; return the dual root and primal point.

    ``w`` need not be sorted or nonnegative (the dual is well defined
    for any finite vector; a NaN or an infinity raises ``ValueError``);
    the ball projector passes the sorted magnitudes.

    Convergence is checked before stepping.  Each iteration performs
    exactly one projection, at the point it steps to, of the coordinates
    ahead of the zero block at ``hi`` (all n before ``phi'`` has been
    seen to be >= 0); it is returned at full length.  The start costs
    one more, except at ``y0 = 0`` with ``w`` strictly decreasing and
    ``w[-1] >= 0``, where ``phi'`` and ``M`` are read off ``w`` directly;
    there a start that is already converged still costs one projection,
    for the report's ``cone``.
    """
    if params is None:
        params = SsnParams()
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 1 or w.size != weights.n:
        raise ValueError(f"w must be a vector of length {weights.n}")
    if not all_finite(w):
        raise ValueError("w must contain only finite values")
    tau = float(tau)
    if not (np.isfinite(tau) and tau > 0.0):
        raise ValueError(f"tau must be positive and finite, got {tau}")

    lam = weights.values

    y = float(params.y0)
    if y == 0.0 and w[-1] >= 0.0 and strictly_decreasing(w):
        # Pi_C(w) = w with singleton blocks; the zero block, if any, is
        # the last singleton and adds no curvature.
        p = None
        grad = float(np.dot(w, lam)) - tau
        w_top = w.size - int(w[-1] == 0.0)     # Pi_C(w) is zero from here on
        with np.errstate(over="ignore"):        # M = inf: see the no-op test
            m = float(np.dot(lam[:w_top], lam[:w_top]))
    else:
        grad, p = dual_gradient(y, w, weights, tau)
        m = None
    eta = residual(grad, tau)
    lo, hi = -np.inf, np.inf
    top = w.size            # the projection at hi is zero from here on
    trace: list[StepRecord] = []
    stop = None

    while eta > params.eps and len(trace) < _MAX_ITER:
        if m is None:
            m = block_curvature(p, lam)
        if grad < 0.0:
            lo = y
        else:
            hi = y
            top = w_top if p is None else p.zero_start
        # M = 0 iff the projection is zero (lam[0] > 0 forces a live block
        # otherwise).  phi' is -tau up to the flat piece's closed end, so a
        # gradient step from there leaves the piece at once.
        if m > 0.0:
            y_next, kind = y - grad / m, NEWTON
            # The model start: from 0 with plateau weights the first step
            # goes on to the model root when that lies lower.
            if not trace and y == 0.0 and grad > 0.0 and weights.plateau is not None:
                y_next = min(y_next, plateau_model_root(w, w if p is None else p.x,
                                                        weights, tau))
        else:
            y_next, kind = max(y, -sorted_dual_norm(w, lam)) - grad, GRADIENT
        # Finite termination.  A gradient step is never a no-op: it would
        # accept the zero projection of the flat piece.  Nor is a step
        # whose M overflowed to inf: -phi'/M is then 0 whatever phi' is.
        if 0.0 < m < np.inf and abs(y_next - y) <= NOOP_RTOL * abs(y):
            stop = NOOP
            break
        if not lo < y_next < hi:
            stop = BRACKET  # only roundoff sends a step out (module docstring)
            break
        trace.append(StepRecord(y=y, grad=grad, curvature=m, kind=kind))
        y = y_next
        grad, p = dual_gradient(y, w, weights, tau, top)
        eta = residual(grad, tau)
        m = None

    if p is None:
        p = project_cone(y * lam + w)
    if stop is None:
        stop = RESIDUAL if eta <= params.eps else CAP
    return SsnReport(y_star=y, cone=p, residual_eta=eta, stop=stop, step_trace=trace)
