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
holding ``1/sqrt(L)`` on it.  ``H`` is never formed.

The ball projector's Jacobian is ``S = P.T (H - u u.T) P``, with ``P``
the signed sort of the input and ``u = H lam / ||H lam||``.  Conjugating
by ``P`` only relabels and re-signs coordinates, so :class:`BallJacobian`
holds ``S`` in the original coordinates: each coordinate carries the
label of the block its sorted position falls in and the sign of its
input entry, and ``u`` is stored as ``P.T u``.  Building it costs two
scatters through the sort; each matvec then streams over its input
and reads only a table of per-block means, with no permutation.

The dense reference ``I - B_G.T (B_G B_G.T)^-1 B_G`` for a tight set
``G`` lives in :mod:`owlball.oracle`, which also maps ``G`` to blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import sign_or_one, signed_sort
from .isotonic import ConeProjection, project_cone, reduce_spans

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
    symmetric positive semidefinite.  Everything is held in the original
    coordinates, so the matvec

        S v = signs * means[label] + keep * v - unit * <unit, v>,
        means = (sums of signs * v per label) * inv_sizes,

    needs no permutation.  ``degenerate`` marks ``H lam = 0``, which
    cannot occur at a feasible solution; applying a degenerate operator
    raises.

    Attributes
    ----------
    label : ndarray of int
        Per coordinate: the index of its positive pooled block (``0`` to
        ``m-1``), ``m`` for a positive singleton, ``m+1`` for the zero
        block, where ``m`` is the number of positive pooled blocks.
    signs : ndarray
        ``sign(b)``, with zeros counted as ``+1``.
    inv_sizes : ndarray
        ``1/L`` for each positive pooled block, then ``0`` for the
        singleton and zero labels; length ``m+2``.
    keep : ndarray
        ``1.0`` on the positive singletons, which ``H`` passes through,
        ``0.0`` elsewhere.  Stored as floats, since a multiply streams
        where a masked copy branches on every coordinate.
    unit : ndarray
        ``P.T u``.
    degenerate : bool
    """

    label: np.ndarray
    signs: np.ndarray
    inv_sizes: np.ndarray
    keep: np.ndarray
    unit: np.ndarray
    degenerate: bool

    @property
    def n(self) -> int:
        return self.label.size


def cone_jacobian(p: ConeProjection) -> ConeJacobian:
    """Jacobian of the cone projector on the piece selected by ``p``.

    Read off the canonical blocks of ``p``, so the tight set is the
    maximal one; O(n).
    """
    return ConeJacobian(p.block_starts, p.block_values[-1] == 0.0, p.n)


def apply_cone_jacobian(h: ConeJacobian, v) -> np.ndarray:
    """Matvec ``H v`` in O(n): copy, average each pooled span, zero the tail.

    Each mean is the direct sum over its span, so its error does not grow
    with the coordinates before it.
    """
    v = np.asarray(v, dtype=np.float64)
    if v.size != h.n:
        raise ValueError(f"expected length {h.n}, got {v.size}")
    out = v.copy()
    if h.avg_starts.size:
        means = reduce_spans(np.add, v, h.avg_starts, h.avg_stops) / h.avg_sizes
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
        The report of :func:`owlball.project_ball` on this same
        ``inst``; its sort and final cone projection are reused, so
        building costs O(n) with no sort.  A dual value ``y``, or a
        report without a sort (a bare :func:`owlball.ssn.solve`), costs
        one signed sort and one cone projection at ``y`` (or ``y_star``).

    Raises
    ------
    ValueError
        When the report's sort or cone projection has another length
        than ``inst``.
    """
    lam = inst.weights.values
    sort = getattr(solution, "sort", None)
    if sort is None:
        sort, w = signed_sort(inst.b)
        cone = project_cone(float(getattr(solution, "y_star", solution)) * lam + w)
    else:
        cone = solution.cone
    if sort.n != inst.n or cone.n != inst.n:
        raise ValueError(f"report has length {sort.n} (sort) and {cone.n} "
                         f"(cone projection), instance has length {inst.n}")

    # Sorted-coordinate block layout: positive pooled blocks get labels
    # 0..m-1, positive singletons m, the zero block m+1.
    n = inst.n
    lengths = cone.block_lengths
    live = cone.num_blocks - int(cone.block_values[-1] == 0.0)
    pooled = np.flatnonzero(lengths[:live] > 1)
    m = pooled.size
    block_label = np.full(cone.num_blocks, m, dtype=np.intp)
    block_label[pooled] = np.arange(m)
    block_label[live:] = m + 1

    # H lam: lam itself on positive singletons, its block mean on pooled
    # blocks, zero on the zero block.
    block_hlam = np.zeros(cone.num_blocks)
    block_hlam[:live] = lam[cone.block_starts[:live]]
    sizes = lengths[pooled]
    if m:
        first = cone.block_starts[pooled]
        block_hlam[pooled] = reduce_spans(np.add, lam, first, first + sizes) / sizes
    hlam = np.repeat(block_hlam, lengths)
    norm = float(np.linalg.norm(hlam))
    degenerate = norm == 0.0
    if not degenerate:
        hlam /= norm
    hlam *= sort.signs

    # The only two scatters through the sort.
    label = np.empty(n, dtype=np.intp)
    label[sort.perm] = np.repeat(block_label, lengths)
    unit = np.empty(n)
    unit[sort.perm] = hlam

    inv_sizes = np.zeros(m + 2)
    inv_sizes[:m] = 1.0 / sizes
    return BallJacobian(label=label, signs=sign_or_one(inst.b),
                        inv_sizes=inv_sizes,
                        keep=(label == m).astype(np.float64),
                        unit=unit, degenerate=degenerate)


def apply_ball_jacobian(s: BallJacobian, v) -> np.ndarray:
    """Matvec ``S v`` in O(n), in the original coordinates (see
    :class:`BallJacobian`)."""
    if s.degenerate:
        raise ValueError(
            "degenerate ball Jacobian (H lam = 0): this cannot happen at a "
            "feasible solution and signals an inconsistency upstream")
    v = np.asarray(v, dtype=np.float64)
    if v.size != s.n:
        raise ValueError(f"expected length {s.n}, got {v.size}")
    tmp = np.multiply(s.signs, v)
    means = np.bincount(s.label, weights=tmp, minlength=s.inv_sizes.size)
    means *= s.inv_sizes
    out = means[s.label]
    out *= s.signs
    out += np.multiply(s.keep, v, out=tmp)
    out -= np.multiply(s.unit, float(np.dot(s.unit, v)), out=tmp)
    return out
