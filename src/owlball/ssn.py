"""Semismooth Newton method for the scalar dual of the cone subproblem.

Projecting a sorted vector ``w`` onto the intersection of the monotone
nonnegative cone with the hyperplane ``<lam, x> = tau`` reduces, by
dualizing the single linear constraint, to the one-dimensional concave
maximization of

    phi(y) = -( 0.5 ||Pi_C(y lam + w)||^2 - y tau - 0.5 ||w||^2 )

(we minimize ``phi`` as written, which is convex).  Its derivative
``phi'(y) = <Pi_C(y lam + w), lam> - tau`` is nondecreasing, piecewise
affine and semismooth, with a unique root ``y*``; the primal solution is
``x* = Pi_C(y* lam + w)``.

Each iteration projects once onto the cone, reads the curvature
``M = lam.T H lam`` off the resulting blocks (see
:func:`block_curvature`; no Jacobian is built), takes a
Newton step ``-phi'/M`` (or a plain gradient step ``-phi'`` on the flat
piece where the projection vanishes and ``M = 0``), and backtracks with
an Armijo test.  Near the root the active piece is identified and a
single full Newton step lands on ``y*`` up to roundoff, so the method
terminates in a handful of iterations regardless of n.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import SignedSort, Weights
from .isotonic import ConeProjection, project_cone, reduce_spans

__all__ = [
    "SsnParams",
    "StepRecord",
    "SsnReport",
    "dual_value",
    "dual_gradient",
    "block_curvature",
    "solve",
]

# Armijo cap: 60 halvings shrink any sane step below float resolution,
# so accepting the last trial after that only concedes roundoff.
_MAX_BACKTRACKS = 60

# phi is three O(||w||^2)-sized terms summing to something near zero, so
# one evaluation carries cancellation noise of that scale times machine
# epsilon.  Near the root the Newton decrease drops below this noise and
# a literal sufficient-decrease test rejects perfectly good steps forever
# (accepting only sub-ulp moves of y).  The test therefore gets a slack
# of a few ulps of the evaluated terms; above the noise scale it is the
# plain Armijo inequality.
_PHI_SLACK = 16.0
_EPS = float(np.finfo(np.float64).eps)


@dataclass(frozen=True)
class SsnParams:
    """Solver knobs.

    mu : Armijo slope fraction, in (0, 1/2).
    delta : backtracking shrink factor, in (0, 1).
    eps : stop when ``|phi'(y)| / (1 + tau) <= eps``.
    max_iter : iteration cap; hitting it is reported, not raised.
    y0 : starting dual point.
    """

    mu: float = 1e-4
    delta: float = 0.5
    eps: float = 1e-12
    max_iter: int = 100
    y0: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.mu < 0.5:
            raise ValueError(f"mu must lie in (0, 1/2), got {self.mu}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must lie in (0, 1), got {self.delta}")
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be at least 1, got {self.max_iter}")
        if not np.isfinite(self.y0):
            raise ValueError(f"y0 must be finite, got {self.y0}")


@dataclass(frozen=True)
class StepRecord:
    """One accepted step: state at the step's start plus the step taken."""

    y: float
    phi: float
    grad: float
    curvature: float
    alpha: float
    unit_step: bool


@dataclass(frozen=True)
class SsnReport:
    """Solve outcome.

    ``cone`` is the cone projection at ``y_star`` and ``x_star`` its
    point: exactly nonincreasing and nonnegative by construction,
    feasible for the hyperplane only up to ``residual_eta``.
    ``converged`` is False when the iteration cap was hit; callers decide
    whether that is fatal.  ``sort`` is the signed sort that produced
    ``w``; :func:`owlball.project_ball` fills it in, a bare :func:`solve`
    leaves it None.  Together with ``cone`` it is all that
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


def _phi(x, y: float, tau: float, half_wsq: float) -> tuple[float, float]:
    """phi(y) from ``x = Pi_C(y lam + w)`` and ``half_wsq = 0.5 ||w||^2``.

    Also returns the cancellation noise of the evaluation: a few ulps of
    its three terms (see ``_PHI_SLACK``).
    """
    half_xsq = 0.5 * float(np.dot(x, x))
    phi = half_xsq - y * tau - half_wsq
    noise = _PHI_SLACK * _EPS * (half_xsq + abs(y * tau) + half_wsq)
    return phi, noise


def dual_value(y: float, w, weights: Weights, tau: float) -> float:
    """phi(y) = 0.5 ||Pi_C(y lam + w)||^2 - y tau - 0.5 ||w||^2."""
    w = np.asarray(w, dtype=np.float64)
    p = project_cone(y * weights.values + w)
    return _phi(p.x, y, tau, 0.5 * float(np.dot(w, w)))[0]


def dual_gradient(y: float, w, weights: Weights, tau: float):
    """phi'(y) and the cone projection it was read from.

    Returns
    -------
    grad : float
    proj : ConeProjection
        Reuse its block structure for the curvature at the same y.
    """
    w = np.asarray(w, dtype=np.float64)
    p = project_cone(y * weights.values + w)
    return float(np.dot(p.x, weights.values)) - tau, p


def block_curvature(p: ConeProjection, lam) -> float:
    """Curvature ``M = lam.T H lam`` at ``p``, read off its blocks.

    ``H``, the cone projector's Jacobian on the piece of ``p``, averages
    each block with a positive value and zeroes the zero block, so

        M = sum over blocks with value > 0 of (sum of lam over block)**2 / length.

    Canonical blocks strictly decrease, so only the last one can be the
    zero block.  A singleton's sum is its own weight; only pooled blocks
    are summed, by one ``add.reduceat``, and each term enters the dot as
    ``sum / sqrt(length)``.  O(n); when every block is a singleton, as at
    a start inside the cone, it is one dot product of ``lam`` with itself.
    Equals ``lam @ apply_cone_jacobian(cone_jacobian(p), lam)`` up to
    roundoff, and is exactly ``0.0`` when ``p.x`` is all zero.
    """
    lam = np.asarray(lam, dtype=np.float64)
    live = p.num_blocks - int(p.block_values[-1] == 0.0)
    if p.num_blocks == p.n:
        # Every block a singleton: the terms are the weights themselves.
        terms = lam[:live]
    else:
        starts, lengths = p.block_starts[:live], p.block_lengths[:live]
        terms = lam[starts]
        pooled = np.flatnonzero(lengths > 1)
        if pooled.size:
            first, size = starts[pooled], lengths[pooled]
            terms[pooled] = reduce_spans(np.add, lam, first, first + size) / np.sqrt(size)
    return float(np.dot(terms, terms))


def solve(w, weights: Weights, tau: float, params: SsnParams | None = None) -> SsnReport:
    """Drive ``phi'`` to zero; return the dual root and primal point.

    ``w`` need not be sorted or nonnegative (the dual is well defined
    for any vector); the ball projector passes the sorted magnitudes.

    Convergence is checked before stepping, so a converged ``y0`` costs
    zero iterations and one projection.  Each iteration performs exactly
    one projection for the gradient (shared with the curvature) plus one
    per line-search trial.
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
    half_wsq = 0.5 * float(np.dot(w, w))
    inv_scale = 1.0 / (1.0 + tau)

    y = float(params.y0)
    p = project_cone(y * lam + w)
    grad = float(np.dot(p.x, lam)) - tau
    eta = abs(grad) * inv_scale
    trace: list[StepRecord] = []
    iterations = 0

    while eta > params.eps and iterations < params.max_iter:
        m = block_curvature(p, lam)
        # M = 0 iff the projection is zero (lam[0] > 0 forces the leading
        # coordinate into a live block otherwise); fall back to the plain
        # gradient step there, as the Newton direction is undefined.
        d = -grad / m if m > 0.0 else -grad
        phi, _ = _phi(p.x, y, tau, half_wsq)
        slope = params.mu * grad * d

        alpha = 1.0
        for _ in range(_MAX_BACKTRACKS):
            y_trial = y + alpha * d
            p_trial = project_cone(y_trial * lam + w)
            phi_trial, noise = _phi(p_trial.x, y_trial, tau, half_wsq)
            if phi_trial <= phi + alpha * slope + noise:
                break
            alpha *= params.delta

        trace.append(StepRecord(y=y, phi=phi, grad=grad, curvature=m,
                                alpha=alpha,
                                unit_step=(m > 0.0 and alpha == 1.0)))
        y, p = y_trial, p_trial
        grad = float(np.dot(p.x, lam)) - tau
        eta = abs(grad) * inv_scale
        iterations += 1

    return SsnReport(y_star=y, cone=p, iterations=iterations,
                     residual_eta=eta, converged=eta <= params.eps,
                     step_trace=trace)
