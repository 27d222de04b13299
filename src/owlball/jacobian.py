"""Generalized Jacobians of the cone and ball projectors as O(n) operators.

The projector onto the monotone nonnegative cone is piecewise linear,
and on the piece of a projection ``p`` its Jacobian ``H`` is fixed by
the constant blocks of ``p``, in the form :func:`project_cone` returns
them (``block_starts`` plus whether the last block is pinned at zero):

* a pooled block (two or more coordinates) with a positive value maps
  the input to its mean, replicated over the block;
* the zero block, which can only be the last one, maps to zero;
* a singleton block with a positive value passes its coordinate through.

So ``H = D + U U.T`` with ``D`` a 0/1 diagonal (the positive singletons)
and one column of ``U`` per positive pooled block of length ``L``,
holding ``1/sqrt(L)`` on it.  ``H`` is never formed.  The ball
projector's Jacobian is the same ``H`` conjugated by the signed sort and
corrected by a rank-one term along ``H @ lam``.

The dense reference ``I - B_G.T (B_G B_G.T)^-1 B_G`` for a tight set
``G`` lives in :mod:`owlball.oracle`, which also maps ``G`` to blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SignedSort, signed_sort
from .isotonic import ConeProjection, project_cone

__all__ = [
    "ConeJacobian",
    "BallJacobian",
    "cone_jacobian",
    "apply_cone_jacobian",
    "ball_jacobian",
    "apply_ball_jacobian",
]


class ConeJacobian:
    """Implicit projector Jacobian ``H = D + U U.T`` on one piece.

    ``apply_cone_jacobian`` is the matvec; see the module docstring for
    the layout.

    Attributes
    ----------
    block_starts : ndarray of int
        First index of each block; blocks partition ``range(n)``.
    zero_tail : bool
        The last block is pinned at zero (``block_values[-1] == 0``).
    n : int
    avg_starts, avg_stops, avg_sizes : ndarray of int
        Half-open spans ``[s, t)`` of the pooled blocks off the zero
        tail (the U columns) and their lengths.
    avg_coords : ndarray of int
        All coordinates of those spans, ascending.
    zero_start : int
        First coordinate of the zero tail, ``n`` when there is none.
    """

    def __init__(self, block_starts, zero_tail: bool, n: int):
        self.block_starts = np.asarray(block_starts, dtype=np.intp)
        self.zero_tail = bool(zero_tail)
        self.n = int(n)
        starts = self.block_starts
        stops = np.append(starts[1:], self.n)
        if self.zero_tail:
            starts, stops = starts[:-1], stops[:-1]
        pooled = stops - starts > 1
        self.avg_starts, self.avg_stops = starts[pooled], stops[pooled]
        self.avg_sizes = self.avg_stops - self.avg_starts
        offsets = np.cumsum(self.avg_sizes) - self.avg_sizes
        base = np.repeat(self.avg_starts - offsets, self.avg_sizes)
        self.avg_coords = base + np.arange(base.size)
        self.zero_start = int(self.block_starts[-1]) if self.zero_tail else self.n


@dataclass(frozen=True)
class BallJacobian:
    """Implicit Jacobian ``S = P.T (H - u u.T) P`` of the ball projector.

    ``P`` is the signed sort of the instance, ``H`` the cone-projector
    Jacobian at the solution, and ``u = H lam / ||H lam||``.  ``S`` is
    symmetric positive semidefinite.  ``degenerate`` marks ``H lam = 0``,
    which cannot occur at a feasible solution; applying a degenerate
    operator raises.
    """

    sort: SignedSort
    cone: ConeJacobian
    unit: np.ndarray
    degenerate: bool

    @property
    def n(self) -> int:
        return self.cone.n


def cone_jacobian(p: ConeProjection) -> ConeJacobian:
    """Jacobian of the cone projector on the piece selected by ``p``.

    Read off the canonical blocks of ``p``, so the tight set is the
    maximal one; O(n).
    """
    return ConeJacobian(p.block_starts, p.block_values[-1] == 0.0, p.n)


def apply_cone_jacobian(h: ConeJacobian, v) -> np.ndarray:
    """Matvec ``H v`` in O(n): copy, average each pooled span, zero the tail."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != h.n:
        raise ValueError(f"expected length {h.n}, got {v.size}")
    out = v.copy()
    if h.avg_starts.size:
        csum = np.concatenate(([0.0], np.cumsum(v)))
        means = (csum[h.avg_stops] - csum[h.avg_starts]) / h.avg_sizes
        out[h.avg_coords] = np.repeat(means, h.avg_sizes)
    out[h.zero_start:] = 0.0
    return out


def ball_jacobian(inst, solution) -> BallJacobian:
    """Canonical Jacobian of the ball projector at a solved instance.

    Parameters
    ----------
    inst : Instance
        A non-trivial instance (norm of ``b`` exceeds the radius).
    solution : SsnReport or float
        The solver report for ``inst`` (anything with a ``y_star``
        attribute), or the dual solution itself.
    """
    y = float(getattr(solution, "y_star", solution))
    lam = inst.weights.values
    sort, w = signed_sort(inst.b)
    h = cone_jacobian(project_cone(y * lam + w))
    hlam = apply_cone_jacobian(h, lam)
    norm = float(np.linalg.norm(hlam))
    degenerate = norm == 0.0
    unit = hlam if degenerate else hlam / norm
    return BallJacobian(sort=sort, cone=h, unit=unit, degenerate=degenerate)


def apply_ball_jacobian(s: BallJacobian, v) -> np.ndarray:
    """Matvec ``S v = P.T (H (P v) - <unit, P v> unit)`` in O(n)."""
    if s.degenerate:
        raise ValueError(
            "degenerate ball Jacobian (H lam = 0): this cannot happen at a "
            "feasible solution and signals an inconsistency upstream")
    u = s.sort.apply(v)
    t = apply_cone_jacobian(s.cone, u)
    t -= s.unit * float(np.dot(s.unit, u))
    return s.sort.apply_inverse(t)
