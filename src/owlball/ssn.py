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
:func:`blocks_curvature`; no Jacobian is built) and takes the Newton
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
projection (a no-op costs none).

*Block steps.*  Every step lands below ``hi``, the lowest point so far
with ``phi' >= 0``, and by the lemma no block of the projection at
``hi`` splits there: ``lam`` is nonincreasing, so lowering ``y`` lowers
a block's left part by at least as much as its right part, and the zero
block can only grow.  So once the solve holds a projection at ``hi``
with a pooled block, a step projects its positive blocks instead of the
coordinates (:func:`block_step`): block ``j``, of value ``v_j``, length
``L_j`` and sum of ``lam`` ``Lam_j``, is one entry ``v_j + (y - y_hi)
Lam_j / L_j`` of weight ``L_j``, and the new blocks are the runs of the
result.  That is exact in exact arithmetic, needs no n-sized pass and
costs O(blocks at ``hi``), which shrink as the iterates fall.  Where no
block at ``hi`` pooled, its blocks are the coordinates ahead of its zero
block, and a step projects those (the rest stays zero: ``Pi_C`` is
order-preserving); before any point with ``phi' >= 0`` a step projects
all n coordinates.  ``phi'`` is read off the projection a point took:
``<x, lam> - tau`` off coordinates, ``sum_j v_j Lam_j - tau`` off blocks.
``M`` is read off the positive blocks either way, and a point projected
on coordinates builds them only when it steps on.  The answer ``x`` is
written once, at the final point: by its projection, or off the blocks
where a block step reached it, whose starts and sums of ``lam`` the
report's projection then carries for the Jacobian (:func:`write_cone`).
Each block carries its first coordinate through the steps, so the write
needs no pass over the lengths to place it.  The two readings of
``phi'`` differ by roundoff, so a stop that roundoff decides is not
taken off blocks: where a block step's reading makes the next step a
no-op or sends it out of the bracket (or, for ``eps`` below
``eps_mach``, reads within ``eps_mach * tau`` of 0), the solve takes a
``"reread"`` step, which stays at ``y`` and projects the coordinates
there, and the stop rule judges that reading.  With constant weights every point projected is
nonincreasing and costs no PAVA pass.

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
from typing import NamedTuple

import numpy as np

from .core import SignedSort, Weights, all_finite, dot, sorted_dual_norm
from .isotonic import (ConeProjection, positive_block_sums, project_cone, repair_ties,
                       strictly_decreasing)

__all__ = [
    "SsnParams",
    "StepRecord",
    "SsnReport",
    "dual_gradient",
    "residual",
    "solve",
]

# Step kinds recorded in StepRecord.kind.
NEWTON = "newton"          # -phi'/M
GRADIENT = "gradient"      # -phi' from the flat piece's end, where M = 0
REREAD = "reread"          # stays at y and reads phi' off the coordinates there

_EPS_MACH = float(np.finfo(np.float64).eps)
NOOP_RTOL = 8.0 * _EPS_MACH     # a Newton step below this * |y| is a no-op

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

    ``kind`` is ``"newton"``, ``"gradient"`` on the flat piece where
    ``M = 0``, or ``"reread"``, which stays at ``y`` and projects the
    coordinates there, where a block step's reading of ``phi'`` would
    have stopped the solve (see the module docstring); ``unit_step`` is
    True for a Newton step.  With plateau weights, the first step from 0
    goes on to the model root when that lies lower (the module
    docstring's model start); it is a ``"newton"`` step too.
    ``projected`` is the number of entries that the projection at the
    step's landing point took: ``n`` for a step taken before any point
    with ``phi' >= 0``; below ``hi``, the number of positive blocks of
    the projection at ``hi`` for a block step, else (no block at ``hi``
    pooled, or a reread) the coordinates ahead of its zero block.
    """

    y: float
    grad: float
    curvature: float
    kind: str
    projected: int

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
    Together with ``cone``, which carries its blocks (and their sums of
    ``lam`` where a block step reached ``y_star``), it is all that
    :func:`owlball.ball_jacobian` needs.
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
    read from, whose blocks give the curvature at the same ``y``.
    :func:`owlball.solve_root` evaluates every point here.
    :func:`solve` reads its points the same way, forming ``y lam + w``
    in a buffer of its own, except those a block step reaches, which it
    reads off their blocks.

    ``top`` is where the zero block starts in the projection at some
    point at or above ``y`` (``n`` if omitted).  ``Pi_C`` is
    order-preserving and ``y lam + w`` falls as ``y`` falls, so the
    projection at ``y`` is zero from ``top`` on too, and only the first
    ``top`` coordinates are projected.  The projection is still returned
    at full length, and ``phi'`` is its dot with all of ``lam``.
    """
    lam = weights.values
    top = lam.size if top is None else top
    return project_coordinates(np.empty(top), y, lam, w, top, tau)


def residual(grad: float, tau: float) -> float:
    """The stop rule's residual ``|phi'| / tau``, relative to the radius
    at every scale.  Both solvers stop when it drops to their
    tolerance."""
    return abs(grad) / tau


class Blocks(NamedTuple):
    """The blocks with a positive value of a projection ``Pi_C(y lam + w)``,
    in order: each one's first coordinate, its value, its sum of ``lam``
    and its length (a float, the weight of its entry in a block step).
    ``M`` is read off them at every point the solve steps from
    (:func:`blocks_curvature`), ``phi'`` at every point a block step lands
    on (:func:`blocks_gradient`), a block step below the point projects
    them (module docstring), and where a block step reached the final
    point, its ``x`` is written off them (:func:`write_cone`)."""

    starts: np.ndarray
    values: np.ndarray
    sums: np.ndarray
    lengths: np.ndarray


def coordinate_blocks(p: ConeProjection, lam) -> Blocks:
    """The positive blocks of ``p``, a projection of the coordinates, with
    ``p``'s own block starts (its PAVA pass's, or read off ``x``); each
    pooled block's sum of ``lam`` is summed directly
    (:func:`positive_block_sums`).  O(n)."""
    live = p.num_blocks - int(p.zero_tail)
    starts = p.block_starts[:live]
    return Blocks(starts, p.x[starts], positive_block_sums(p, lam)[0],
                  p.block_lengths[:live].astype(np.float64))


def blocks_gradient(blocks: Blocks, tau: float) -> float:
    """``phi' = <Pi_C(y lam + w), lam> - tau``, read off the positive
    blocks as the sum of value times sum of ``lam``."""
    return dot(blocks.values, blocks.sums) - tau


def blocks_curvature(sums, lengths=None) -> float:
    """Curvature ``M = lam.T H lam``, read off the positive blocks' sums
    of ``lam`` and their lengths (singletons all, if no lengths are given).

    ``H``, the cone projector's Jacobian on the piece of the point,
    averages each block with a positive value and zeroes the zero block,
    so

        M = sum over blocks with value > 0 of (sum of lam over block)**2 / length.

    Each block enters the dot as ``sum / sqrt(length)``, which is a
    singleton's own sum, so only the pooled sums are divided; O(number
    of blocks).  ``H`` is an orthogonal projector, so ``M`` is also
    ``||H lam||**2``, which :func:`owlball.ball_jacobian` takes from here.
    """
    if lengths is not None:
        pooled = np.flatnonzero(lengths > 1)
        sums = sums.copy()                  # each block's sum / sqrt(length)
        sums[pooled] /= np.sqrt(lengths[pooled])
    with np.errstate(over="ignore"):    # inf past about 1e154; solve checks
        return dot(sums, sums)


def block_step(at_hi: Blocks, y_hi: float, y: float) -> Blocks:
    """The positive blocks of ``Pi_C(y lam + w)`` for ``y < y_hi``, from
    those of the projection at ``y_hi``: one entry per block, its value
    plus ``(y - y_hi)`` times its mean of ``lam``, projected with its
    length as weight.  A pooled block's sums add those of its entries;
    when nothing pooled, the arrays at ``y_hi`` are kept.  O(number of
    blocks at ``y_hi``); the module docstring says why it is exact.  The
    new blocks' first coordinates are those of the first blocks at
    ``y_hi`` that they pool, read through ``q.block_starts``."""
    d = at_hi.sums / at_hi.lengths
    d *= y - y_hi
    d += at_hi.values
    q = project_cone(d, weights=at_hi.lengths)
    live = q.num_blocks - int(q.zero_tail)
    if q.num_blocks == q.n:
        return Blocks(at_hi.starts[:live], q.x[:live], at_hi.sums[:live], at_hi.lengths[:live])
    starts = q.block_starts[:live]
    return Blocks(at_hi.starts[starts], q.x[starts], positive_block_sums(q, at_hi.sums)[0],
                  positive_block_sums(q, at_hi.lengths)[0])


def project_coordinates(buf: np.ndarray, y: float, lam, w, top: int, tau: float):
    """:func:`dual_gradient`'s ``phi'(y)`` and ``Pi_C(y lam + w)``, with
    ``y lam + w`` formed in ``buf``: the projection at full length,
    projecting only the first ``top`` coordinates, and ``phi'`` its dot
    with all of ``lam``."""
    d = np.multiply(y, lam[:top], out=buf[:top])
    d += w[:top]
    p = project_cone(d, lam.size)
    return dot(p.x, lam) - tau, p


def write_cone(x: np.ndarray, blocks: Blocks, y: float, w, lam) -> ConeProjection:
    """``Pi_C(y lam + w)`` from its positive blocks, written into ``x``:
    each block's value on its coordinates, +0.0 after them.

    The projection takes the blocks' starts and their sums of ``lam``,
    so no reader sums ``lam`` again.  As in :func:`project_cone`, a
    pooled block over which ``y lam + w`` is one bitwise value gets that
    value (:func:`repair_ties`); where that ties it with a neighbour, the
    projection takes neither, and its blocks are read off ``x``.
    """
    top = int(blocks.starts[-1] + blocks.lengths[-1]) if blocks.starts.size else 0
    x[:top] = np.repeat(blocks.values, blocks.lengths.astype(np.intp))
    x[top:] = 0.0
    bounds = np.append(blocks.starts, top)
    if repair_ties(x, lambda i: y * lam[i] + w[i], bounds):
        return ConeProjection(x)
    return ConeProjection(x, bounds if top < x.size else blocks.starts, blocks.sums)


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
    exactly one projection, at the point it steps to: of the positive
    blocks of the projection at ``hi`` once the solve holds one with a
    pooled block (module docstring), else of all n coordinates, or of
    those ahead of the zero block at ``hi`` (a reread takes these too).
    ``StepRecord.projected`` says how many entries that was.  The start
    costs one more, except at ``y0 = 0`` with ``w`` strictly decreasing
    and ``w[-1] >= 0``, where ``phi'`` and ``M`` are read off ``w``
    directly; there a start that is already converged still costs one
    projection, for the report's ``cone``.  The solve holds one n-sized
    buffer of its own: each coordinate projection forms ``y lam + w`` in
    it, and a final point reached by a block step has its ``x`` written
    there.
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
    # Each coordinate projection forms y lam + w here, and the answer is
    # written here when a block step reached it: the solve takes no other
    # n-sized array of its own.
    buf = np.empty(w.size)

    y = float(params.y0)
    top = w.size            # a coordinate step projects w[:top]; the rest stays 0
    cone = blocks = m = None
    if y == 0.0 and w[-1] >= 0.0 and strictly_decreasing(w):
        # Pi_C(w) = w with singleton blocks; the zero block, if any, is
        # the last singleton and adds no curvature.  Nothing pooled, so
        # the first step below 0 projects the coordinates ahead of that
        # zero, as a step below any such hi does.
        grad = dot(w, lam) - tau
        w_top = w.size - int(w[-1] == 0.0)
        m = blocks_curvature(lam[:w_top])       # M = inf: see the no-op test
    else:
        grad, cone = project_coordinates(buf, y, lam, w, w.size, tau)
    eta = residual(grad, tau)
    lo, hi = -np.inf, np.inf
    at_hi = None            # the positive blocks of the projection at hi, if any pooled
    on_blocks = False       # phi' at y was read off a block step's blocks
    trace: list[StepRecord] = []
    stop = None

    while len(trace) < _MAX_ITER:
        # Below eps_mach the residual test asks for a reading within an
        # ulp of tau; off blocks such a reading is roundoff's call, as the
        # no-op is, and decides nothing.
        fine = on_blocks and params.eps < _EPS_MACH and eta <= _EPS_MACH
        if eta <= params.eps and not fine:
            break
        if m is None:
            if blocks is None:
                blocks = coordinate_blocks(cone, lam)
            m = blocks_curvature(blocks.sums, blocks.lengths)
        # M = 0 iff the projection is zero (lam[0] > 0 forces a live block
        # otherwise).  phi' is -tau up to the flat piece's closed end, so a
        # gradient step from there leaves the piece at once.
        if m > 0.0:
            y_next, kind = y - grad / m, NEWTON
            # The model start: from 0 with plateau weights the first step
            # goes on to the model root when that lies lower.
            if not trace and y == 0.0 and grad > 0.0 and weights.plateau is not None:
                y_next = min(y_next, plateau_model_root(w, w if cone is None else cone.x,
                                                        weights, tau))
        else:
            y_next, kind = max(y, -sorted_dual_norm(w, lam)) - grad, GRADIENT
        # Finite termination.  A gradient step is never a no-op: it would
        # accept the zero projection of the flat piece.  Nor is a step
        # whose M overflowed to inf: -phi'/M is then 0 whatever phi' is.
        noop = 0.0 < m < np.inf and abs(y_next - y) <= NOOP_RTOL * abs(y)
        out = not (y < y_next < hi if grad < 0.0 else lo < y_next < y)
        if on_blocks and (noop or out or fine):
            # Read off blocks, phi' differs from its reading off the
            # coordinates by roundoff, so the solve does not stop on it:
            # the step stays at y and projects the coordinates there.
            trace.append(StepRecord(y=y, grad=grad, curvature=m, kind=REREAD, projected=top))
            grad, cone = project_coordinates(buf, y, lam, w, top, tau)
            eta, m, on_blocks, blocks = residual(grad, tau), None, False, None
            continue
        if noop:
            stop = NOOP
            break
        if out:
            stop = BRACKET  # only roundoff sends a step out (module docstring)
            break
        if grad < 0.0:
            lo = y
        elif blocks is None:
            hi, top, at_hi = y, w_top, None
        else:
            hi, top = y, int(blocks.lengths.sum())
            # Unpooled blocks are the coordinates ahead of the zero block,
            # and projecting those is the same step at less cost.
            at_hi = blocks if blocks.values.size < top else None
        on_blocks = at_hi is not None
        projected = at_hi.values.size if on_blocks else top
        trace.append(StepRecord(y=y, grad=grad, curvature=m, kind=kind, projected=projected))
        y, blocks = y_next, None
        if on_blocks:
            cone, blocks = None, block_step(at_hi, hi, y)
            grad = blocks_gradient(blocks, tau)
        else:
            grad, cone = project_coordinates(buf, y, lam, w, top, tau)
        eta, m = residual(grad, tau), None

    if cone is None:
        # An in-cone start that needed no step costs one projection, for
        # the report; a point a block step reached is written off its blocks.
        cone = (project_coordinates(buf, y, lam, w, w.size, tau)[1] if blocks is None
                else write_cone(buf, blocks, y, w, lam))
    if stop is None:
        stop = RESIDUAL if eta <= params.eps else CAP
    return SsnReport(y_star=y, cone=cone, residual_eta=eta, stop=stop, step_trace=trace)
