"""Brute-force ground truth for tiny instances, with KKT certificates.

Every solver claim in the test suite bottoms out here.  The oracles
enumerate candidate tight sets of the cone constraints and solve each
candidate's KKT system by dense factorization, so they share no
algorithmic machinery with the production path (no isotonic regression,
no Newton iteration, no bracketing); only the basic vocabulary types
are reused.  Costs are exponential in n and the entry points enforce
small-n caps.

The dense reference for the cone projector's Jacobian on a tight set
also lives here, with the map from a tight set to a cone projection on
its piece, which is what the implicit Jacobian in
:mod:`owlball.jacobian` reads its blocks from.  So do the readers that
only tests call: a projection's tight set (:func:`active_set`), its
block values (:func:`block_values`), the cone Jacobian's block-form
matvec (:func:`apply_cone_jacobian`) and the Newton curvature at a cone
projection (:func:`block_curvature`), which read the production blocks
and are checked against the dense forms here, and the forward signed
sort ``P v`` (:func:`apply_signed_sort`), whose inverse alone the
package needs.

So does :func:`dual_value`, the objective ``phi`` whose derivative the
Newton solver drives to zero.  The solver never evaluates ``phi``, so
only tests use it.  It is the one entry point here that calls the
production cone projector, and no oracle relies on it.

Certificates report a worst-case KKT violation measured relative to the
data scale (values are divided by ``1 + max(|data|, tau)``), so the
acceptance threshold means the same thing for inputs of magnitude 1e-3
and 1e3.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np

from owlball.core import Instance, SignedSort, Weights, owl_norm, signed_sort
from owlball.isotonic import ConeProjection, positive_block_sums, project_cone
from owlball.ssn import blocks_curvature

__all__ = [
    "KktCertificate",
    "difference_matrix",
    "dense_cone_jacobian",
    "tight_set_blocks",
    "block_values",
    "block_tuples",
    "active_set",
    "apply_cone_jacobian",
    "block_curvature",
    "oracle_cone",
    "cone_certificate",
    "oracle_ball",
    "ball_certificate",
    "oracle_dual_norm",
    "dual_value",
]

MAX_N_CONE = 12
MAX_N_BALL = 10

# Dense reference forms are O(n^3) test oracles; refuse silly sizes.
DENSE_CAP = 200

# A candidate tight set is accepted when its scaled KKT violation is
# below this; the true tight set lands around machine epsilon, so the
# threshold only has to reject genuinely wrong candidates.
_ACCEPT_TOL = 1e-10

# A candidate this close is the true tight set, and the enumeration stops
# there; otherwise it goes on to the least violation, since a wrong
# candidate can pass _ACCEPT_TOL by coming first (d = [200, -1.5e-8]
# kept as it is violates x[1] >= 0 by only 7e-11 of the data scale).
_EXACT_TOL = 1e-13

# Solutions whose linear system was too ill-conditioned to trust are
# rejected by the residual of the solve itself.
_SOLVE_RTOL = 1e-8


@dataclass(frozen=True)
class KktCertificate:
    """Optimality evidence for one enumerated solution.

    x : the optimizer, in the caller's coordinates.
    y : equality multiplier (ball problems), None for the cone.
    z : inequality multipliers, one per cone constraint, >= 0; for ball
        problems they refer to the sorted coordinates.
    max_violation : worst scaled KKT residual (stationarity, primal and
        dual feasibility, complementarity), relative to the data scale.
    """

    x: np.ndarray
    y: float | None
    z: np.ndarray
    max_violation: float

    @property
    def multipliers(self):
        return self.y, self.z


def difference_matrix(n: int) -> np.ndarray:
    """Dense constraint matrix: rows ``x[i] - x[i+1]`` and last row ``x[n-1]``."""
    return np.eye(n) - np.eye(n, k=1)


def _check_tight_set(gamma, n: int) -> np.ndarray:
    gamma = np.asarray(gamma, dtype=np.intp)
    if gamma.size and (gamma.min() < 0 or gamma.max() >= n):
        raise ValueError("constraint indices must lie in [0, n)")
    return gamma


def dense_cone_jacobian(gamma, n: int) -> np.ndarray:
    """Dense reference ``H = I - B_G.T (B_G B_G.T)^-1 B_G`` (test oracle).

    Direct linear solve, O(n^3); capped at ``DENSE_CAP``.
    """
    if n > DENSE_CAP:
        raise ValueError(f"dense reference capped at n = {DENSE_CAP}, got {n}")
    gamma = np.unique(_check_tight_set(gamma, n))
    if gamma.size == 0:
        return np.eye(n)
    bg = difference_matrix(n)[gamma]
    return np.eye(n) - bg.T @ np.linalg.solve(bg @ bg.T, bg)


def tight_set_blocks(gamma, n: int) -> ConeProjection:
    """A cone projection on the piece of the tight set ``gamma``.

    A block starts at 0 and after each slack constraint ``i < n-1``.
    The block values are ``k, ..., 1`` for ``k`` blocks, with the last
    one set to 0 iff the sign constraint ``n-1`` is tight, so the
    result is a canonical projection whose maximal tight set is
    ``gamma``, and ``apply_cone_jacobian`` on it is the implicit form of
    ``dense_cone_jacobian(gamma, n)``.  Built with the plain
    ``ConeProjection`` constructor from its ``x``: no cone projector
    runs.
    """
    slack = np.ones(n, dtype=bool)
    slack[_check_tight_set(gamma, n)] = False
    starts = np.flatnonzero(np.append(True, slack[:-1]))
    values = np.arange(starts.size, 0, -1, dtype=np.float64)
    if not slack[-1]:
        values[-1] = 0.0
    return ConeProjection(np.repeat(values, np.diff(starts, append=n)))


def block_values(p: ConeProjection) -> np.ndarray:
    """``x[block_starts]`` of ``p``: the mean of the input over each
    block, clamped at zero."""
    return p.x[p.block_starts]


def block_tuples(p: ConeProjection) -> list[tuple[int, int, float]]:
    """Blocks of ``p`` as ``(start, end, value)`` tuples with half-open
    ends, from its public block attributes."""
    ends = p.block_starts + p.block_lengths
    return [(int(s), int(e), float(v))
            for s, e, v in zip(p.block_starts, ends, block_values(p))]


def active_set(p: ConeProjection) -> np.ndarray:
    """Indices of the cone constraints that are tight at ``p.x``.

    Constraint ``i < n-1`` is ``x[i] - x[i+1] >= 0`` and constraint
    ``n-1`` is ``x[n-1] >= 0`` (0-based).  The answer is read off the
    block structure, never from float comparisons on ``x``: equality
    constraints are exactly the within-block positions, and the last
    constraint is tight iff the final block value is zero.

    Returns
    -------
    ndarray of int
        Sorted tight-constraint indices.
    """
    n = p.n
    tight = np.ones(n, dtype=bool)
    tight[p.block_starts[1:] - 1] = False      # slack between adjacent blocks
    tight[n - 1] = p.zero_tail
    return np.flatnonzero(tight)


def apply_cone_jacobian(p: ConeProjection, v) -> np.ndarray:
    """Matvec ``H v`` in O(n), ``H`` the cone projector's Jacobian on the
    piece of ``p``: the mean of ``v`` on each positive pooled block,
    ``v`` itself on positive singletons, and 0 on the zero block.  Each
    mean is a direct block sum (:func:`positive_block_sums`), so its
    error does not grow with the coordinates before it."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (p.n,):
        raise ValueError(f"expected length {p.n}, got shape {v.shape}")
    lengths = p.block_lengths
    sums, pooled = positive_block_sums(p, v)
    block_hv = np.zeros(p.num_blocks)
    block_hv[:sums.size] = sums
    if pooled.size:
        block_hv[pooled] /= lengths[pooled]
    return np.repeat(block_hv, lengths)


def block_curvature(p: ConeProjection, lam) -> float:
    """Curvature ``M = lam.T H lam`` at the cone projection ``p``, read
    off its blocks by the solver's own :func:`owlball.ssn.blocks_curvature`;
    O(n).  Equals ``lam @ H lam`` up to roundoff, and is exactly ``0.0``
    when ``p.x`` is all zero."""
    live = p.num_blocks - int(p.zero_tail)
    return blocks_curvature(positive_block_sums(p, lam)[0], p.block_lengths[:live])


def _subsets(n: int):
    """All index subsets of range(n), smallest first."""
    idx = np.arange(n)
    for k in range(n + 1):
        for combo in combinations(idx, k):
            yield np.asarray(combo, dtype=np.intp)


def cone_certificate(d) -> KktCertificate:
    """Projection of ``d`` onto the monotone nonnegative cone, certified.

    Enumerates the 2**n tight sets; for each, projects onto the
    corresponding subspace by a dense solve, and accepts the candidate
    whose multipliers and slacks check out best (the first one within
    ``_EXACT_TOL``).
    """
    d = np.asarray(d, dtype=np.float64)
    n = d.size
    if d.ndim != 1 or n == 0:
        raise ValueError("d must be a nonempty vector")
    if n > MAX_N_CONE:
        raise ValueError(f"cone oracle capped at n = {MAX_N_CONE}, got {n}")
    big = difference_matrix(n)
    scale = 1.0 + float(np.max(np.abs(d)))
    best = None
    for gamma in _subsets(n):
        if gamma.size == 0:
            x = d.copy()
            z = np.zeros(n)
        else:
            bg = big[gamma]
            try:
                s = np.linalg.solve(bg @ bg.T, bg @ d)
            except np.linalg.LinAlgError:
                continue
            x = d - bg.T @ s
            z = np.zeros(n)
            z[gamma] = -s
        viol = _kkt_violation_cone(big, d, x, z, scale)
        if best is None or viol < best.max_violation:
            best = KktCertificate(x=x, y=None, z=z, max_violation=viol)
            if viol <= _EXACT_TOL:
                break
    if best is None or best.max_violation > _ACCEPT_TOL:
        raise RuntimeError(
            f"no tight set satisfied the cone KKT conditions (best violation "
            f"{best and best.max_violation}); this indicates a bug in the oracle itself")
    return best


def _kkt_violation_cone(big, d, x, z, scale) -> float:
    slack = big @ x
    stationarity = float(np.max(np.abs(x - d - big.T @ z)))
    primal = float(max(0.0, -slack.min()))
    dual = float(max(0.0, -z.min()))
    comp = float(np.max(np.abs(z * slack)))
    return max(stationarity / scale, primal / scale, dual / scale,
               comp / scale ** 2)


def oracle_cone(d) -> np.ndarray:
    """Cone projection by enumeration; see :func:`cone_certificate`."""
    return cone_certificate(d).x


def ball_certificate(inst: Instance) -> KktCertificate:
    """Ball projection of ``inst.b`` by enumeration, certified.

    Feasible inputs short-circuit to ``b`` with zero multipliers.
    Otherwise the projection is computed in sorted coordinates, where
    it solves the cone-and-hyperplane problem: for each tight set the
    bordered system in (x, y, z) is solved densely, and the candidate
    that passes the KKT checks best (the first one within
    ``_EXACT_TOL``) is mapped back through the sort.
    Near-singular candidate systems are rejected by the residual of
    their own solve.
    """
    b = inst.b
    lam = inst.weights.values
    tau = inst.tau
    n = inst.n
    if n > MAX_N_BALL:
        raise ValueError(f"ball oracle capped at n = {MAX_N_BALL}, got {n}")
    if owl_norm(b, inst.weights) <= tau:
        return KktCertificate(x=b.copy(), y=0.0, z=np.zeros(n),
                              max_violation=0.0)

    sort, w = signed_sort(b)
    big = difference_matrix(n)
    scale = 1.0 + max(float(np.max(np.abs(b))), tau)
    best = None
    for gamma in _subsets(n):
        m = gamma.size
        bg = big[gamma]
        kkt = np.zeros((n + 1 + m, n + 1 + m))
        kkt[:n, :n] = np.eye(n)
        kkt[:n, n] = lam
        kkt[n, :n] = lam
        if m:
            kkt[:n, n + 1:] = -bg.T
            kkt[n + 1:, :n] = bg
        rhs = np.concatenate([w, [tau], np.zeros(m)])
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            continue
        if not np.all(np.isfinite(sol)):
            continue
        if np.max(np.abs(kkt @ sol - rhs)) > _SOLVE_RTOL * (1.0 + np.max(np.abs(rhs))):
            continue  # condition guard: the factorization lost the system
        x = sol[:n]
        y = float(sol[n])
        z = np.zeros(n)
        z[gamma] = sol[n + 1:]
        viol = _kkt_violation_ball(big, lam, tau, w, x, y, z, scale)
        if best is None or viol < best.max_violation:
            best = KktCertificate(x=x, y=y, z=z, max_violation=viol)
            if viol <= _EXACT_TOL:
                break
    if best is None or best.max_violation > _ACCEPT_TOL:
        raise RuntimeError(
            f"no tight set satisfied the ball KKT conditions (best violation "
            f"{best and best.max_violation}); this indicates a bug in the oracle itself")
    # P.T x by its definition: the dense solve's x may hold roundoff below
    # zero, which apply_inverse, defined on nonnegative vectors, reads by
    # magnitude.
    x = np.empty(n)
    x[sort.perm] = np.where(np.signbit(b[sort.perm]), -1.0, 1.0) * best.x
    return replace(best, x=x)


def _kkt_violation_ball(big, lam, tau, w, x, y, z, scale) -> float:
    slack = big @ x
    stationarity = float(np.max(np.abs(x - w + y * lam - big.T @ z)))
    radius = abs(float(np.dot(lam, x)) - tau)
    primal = float(max(0.0, -slack.min()))
    dual = float(max(0.0, -z.min(), -y))
    comp = float(np.max(np.abs(z * slack)))
    return max(stationarity / scale, radius / scale, primal / scale,
               dual / scale, comp / scale ** 2)


def oracle_ball(inst: Instance) -> np.ndarray:
    """Ball projection by enumeration; see :func:`ball_certificate`."""
    return ball_certificate(inst).x


def oracle_dual_norm(y, weights: Weights) -> float:
    """Dual norm by support-function enumeration over extreme points.

    The primal unit ball's extreme points put weight
    ``1 / (lam_1 + ... + lam_k)`` on some k coordinates with arbitrary
    signs; the maximizing choice aligns signs with ``y`` on its k
    largest magnitudes, so it suffices to scan k.
    """
    y = np.asarray(y, dtype=np.float64)
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    n = weights.n
    if y.ndim != 1 or y.size != n:
        raise ValueError(f"y must be a vector of length {n}")
    if n > MAX_N_BALL:
        raise ValueError(f"dual-norm oracle capped at n = {MAX_N_BALL}, got {n}")
    order = np.argsort(-np.abs(y), kind="stable")
    signs = np.sign(y[order])
    signs[signs == 0.0] = 1.0
    lam = weights.values
    best = 0.0
    for k in range(1, n + 1):
        point = np.zeros(n)
        point[order[:k]] = signs[:k] / float(np.sum(lam[:k]))
        best = max(best, float(np.dot(point, y)))
    return best


def apply_signed_sort(sort: SignedSort, v) -> np.ndarray:
    """``P v`` for the signed sort ``P`` of ``sort.b``: permute by
    ``perm``, then negate where ``b`` has its sign bit set, so that
    ``P b`` is ``|b[perm]|`` bit for bit.  The production code only maps
    back, by :meth:`SignedSort.apply_inverse`."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != sort.n:
        raise ValueError(f"expected length {sort.n}, got {v.size}")
    return np.where(np.signbit(sort.b[sort.perm]), -1.0, 1.0) * v[sort.perm]


def dual_value(y: float, w, weights: Weights, tau: float) -> float:
    """phi(y) = 0.5 ||Pi_C(y lam + w)||^2 - y tau - 0.5 ||w||^2."""
    w = np.asarray(w, dtype=np.float64)
    x = project_cone(y * weights.values + w).x
    return 0.5 * float(np.dot(x, x)) - y * tau - 0.5 * float(np.dot(w, w))
