"""Generalized Jacobian of the ball projector as an O(n) operator.

The projector onto the monotone nonnegative cone is piecewise linear,
and on the piece of a projection ``p`` its Jacobian ``H`` is fixed by
the blocks of ``p`` (``block_starts`` and ``zero_tail``):

* a pooled block (two or more coordinates) with a positive value maps
  the input to its mean, replicated over the block;
* the zero block, which can only be the last one, maps to zero;
* a singleton block with a positive value passes its coordinate through.

So ``H = D + U U.T`` with ``D`` a 0/1 diagonal (the positive singletons)
and one column of ``U`` per positive pooled block of length ``L``,
holding ``1/sqrt(L)`` on it.  ``H`` is never formed: the
:class:`~owlball.isotonic.ConeProjection` is its own representation.
On a positive block, ``H lam`` is the block's sum of ``lam`` over its
length, and ``H`` is an orthogonal projector, so ``||H lam||**2`` is the
Newton curvature ``lam.T H lam`` (:func:`owlball.ssn.blocks_curvature`).
:func:`ball_jacobian` takes each pooled block's sum of ``lam`` from the
solve's final projection, which carries them where a block step reached
it, and sums ``lam`` over the pooled blocks itself only where it
carries none; a singleton's sum is its own weight.

The ball projector's Jacobian is ``S = P.T (H - u u.T) P``, with ``P``
the signed sort of the input and ``u = H lam / ||H lam||``.  Through
the sort's permutation the blocks are no longer contiguous, and each
coordinate carries a sign, -1 where ``b`` has its sign bit set (-0.0
included), so :class:`BallJacobian` puts each original coordinate in a
bin of its block and its sign, with ``m`` the number of positive pooled
blocks:

======================  ================================  ===============
block of ``H``          bins                              hb
======================  ================================  ===============
positive pooled, ``j``  ``2j`` (sign +1), ``2j+1`` (-1)   +- the mean of
                                                          ``lam`` on it
zero block              ``2m`` (sign +1), ``2m+1`` (-1)   0
positive singleton      one from ``2m+2`` on, in          its sign times
                        increasing original position      its ``lam``
======================  ================================  ===============

with ``hb`` divided by ``||H lam||``, and ``inv_sizes`` holding ``1/L``
per positive pooled block of length ``L``.  ``u`` is constant on each
block, so ``hb`` holds it per bin with the bin's sign, and the rank-one
term folds into the bin sums: ``<P.T u, v>`` is ``<hb, sums>``, where
``sums`` are the bin sums of ``v``.  A pooled block's signed sum is the
difference of its two bins.  A matvec is one bin sum, O(bins) work on
the bins and one gather back, with no permutation and no per-coordinate
sign.

The dense reference ``I - B_G.T (B_G B_G.T)^-1 B_G`` for a tight set
``G`` lives in the test suite's ``tests/oracle.py``, with the map from
``G`` to a cone projection on its piece, the tight set of a projection
and the block-form matvec ``H v``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import daxpy

from .core import dot
from .isotonic import reduce_spans
from .ssn import blocks_curvature

__all__ = [
    "BallJacobian",
    "ball_jacobian",
    "apply_ball_jacobian",
]


@dataclass(frozen=True)
class BallJacobian:
    """Implicit Jacobian ``S = P.T (H - u u.T) P`` of the ball projector.

    ``P`` is the signed sort of the instance, ``H`` the cone-projector
    Jacobian at the solution, and ``u = H lam / ||H lam||``.  ``S`` is
    symmetric positive semidefinite.  Each block of ``H`` has a bin per
    sign, or one bin if it is a singleton (see the table in
    :mod:`owlball.jacobian`), and ``u`` is constant on each.  With
    ``sums`` the bin sums of ``v`` and ``c = <hb, sums>``, the matvec
    gathers back, in the original coordinates and with no permutation,

    * ``G_j = (sums[2j] - sums[2j+1]) * inv_sizes[j] - c hb[2j]`` to bin
      ``2j`` and ``-G_j`` to bin ``2j+1`` of pooled block ``j``;
    * 0 to the zero block's two bins;
    * ``sums[k] - c hb[k]`` to a singleton's bin ``k``.

    Attributes
    ----------
    label : ndarray of int
        Per coordinate, its bin: ``2j`` or ``2j+1`` on the ``j``-th
        positive pooled block in sorted order, for sign +1 or -1,
        ``2m`` or ``2m+1`` on the zero block, and one bin from ``2m+2``
        on for each positive singleton, numbered in increasing original
        position, so a matvec visits those bins in sequence.  ``m`` is
        the number of positive pooled blocks.  It is the only array of
        length ``n``.
    inv_sizes : ndarray
        Per positive pooled block, ``1/L`` for its length ``L``.
    hb : ndarray
        Per bin, the value of ``u`` on its block times the bin's sign:
        ``+-`` the block's mean of ``lam`` on a pooled block's two bins,
        ``0`` on the zero block's, and a singleton's sign times its own
        weight, all over ``||H lam||``.
    """

    label: np.ndarray
    inv_sizes: np.ndarray
    hb: np.ndarray

    @property
    def n(self) -> int:
        return self.label.size


def ball_jacobian(inst, report) -> BallJacobian:
    """Canonical Jacobian of the ball projector at a solved instance.

    Parameters
    ----------
    inst : Instance
        A non-trivial instance (norm of ``b`` exceeds the radius).
    report : SsnReport
        The report of :func:`owlball.project_ball` on this same
        ``inst``; its sort and final cone projection, with that
        projection's blocks and sums of ``lam``, are reused, so building
        costs O(n) with no sort.

    Raises
    ------
    ValueError
        When ``report`` is None (``b`` is inside the ball), has no sort (a
        dual value, or a bare :func:`owlball.ssn.solve`'s report), has
        another length than ``inst``, comes from another instance (its
        sort holds another ``b`` than ``inst.b``), or has ``H lam = 0``
        (a zero cone projection, which no converged solve leaves).
    """
    if report is None:
        raise ValueError("no solve to differentiate: b is inside the ball, "
                         "where the projection is the identity")
    sort = getattr(report, "sort", None)
    if sort is None:
        raise ValueError("report has no sort: pass the report of "
                         "project_ball, not a dual value or a bare solve's")
    cone = report.cone
    n = inst.n
    if sort.n != n or cone.n != n:
        raise ValueError(f"report has length {sort.n} (sort) and {cone.n} "
                         f"(cone projection), instance has length {n}")
    if sort.b is not inst.b:
        raise ValueError("report is of another instance: its sort holds "
                         "another b than inst.b")

    # Sorted-order labels, in segments: first_single on the run of
    # singletons before each pooled block and before the zero start
    # (until they are renumbered below), 2j on pooled block j, and 2m on
    # the zero block.  The odd segments are the pooled blocks and, last,
    # the zero block, and one np.repeat over the segments, not over every
    # block, writes the labels.
    lam = inst.weights.values
    lengths = cone.block_lengths
    live = lengths.size - int(cone.zero_tail)
    pooled = np.flatnonzero(lengths[:live] > 1)
    zero, singles = 2 * pooled.size, live - pooled.size
    first_single = zero + 2
    first = cone.block_starts[pooled]
    stop = first + lengths[pooled]
    bounds = np.concatenate(([0], np.column_stack((first, stop)).ravel(), [cone.zero_start, n]))
    segment_label = np.full(bounds.size - 1, first_single, dtype=np.intp)
    segment_label[1::2] = np.arange(0, zero + 1, 2)
    sorted_label = np.repeat(segment_label, np.diff(bounds))
    pooled_inv = 1.0 / lengths[pooled]
    # Each pooled block's sum of lam: the cone's own, where the solve
    # wrote it off its blocks, else a direct sum.
    pooled_sums = (reduce_spans(np.add, lam, first, stop) if cone.lam_sums is None
                   else cone.lam_sums[pooled])

    # Scatter the labels through the sort.  Adding 1 where b has its
    # sign bit set then moves each coordinate to the bin of its sign, in
    # one sequential pass in original order.  The singletons are
    # renumbered in original order through one index array: a boolean
    # mask would be turned into indices on each use.
    label = np.empty(n, dtype=np.intp)
    label[sort.perm] = sorted_label
    del sorted_label
    label += np.signbit(sort.b)
    at_single = np.flatnonzero(label >= first_single)
    hb = np.empty(first_single + singles)
    label[at_single] = np.arange(first_single, hb.size)
    if 4 * singles <= n:
        # Few singletons: write each weight, with its sign, straight
        # into its bin through its sorted position.
        sp = cone.block_starts[np.flatnonzero(lengths[:live] == 1)]
        at = sort.perm[sp]
        hb[label[at]] = np.copysign(lam[sp], sort.b[at])
    else:
        # Many: send all of the weights back through the sort, with the
        # signs of b, and read them in original order.  (``clip`` as in
        # :func:`apply_ball_jacobian`: every index is in range.)
        moved = sort.apply_inverse(lam)
        np.take(moved, at_single, out=hb[first_single:], mode="clip")
        del moved
    del at_single

    # ||H lam||^2 is the curvature M, over the pooled blocks and the
    # singletons, whose sums of lam (up to sign) hb holds already.
    norm = math.sqrt(blocks_curvature(pooled_sums, lengths[pooled])
                     + blocks_curvature(hb[first_single:]))
    if norm == 0.0:
        raise ValueError("H lam = 0: the report's cone projection is zero, "
                         "so it is no solution on the ball's boundary")
    hb[:zero:2] = pooled_sums * pooled_inv
    np.negative(hb[:zero:2], out=hb[1:zero:2])
    hb[zero:first_single] = 0.0
    hb /= norm
    return BallJacobian(label=label, inv_sizes=pooled_inv, hb=hb)


def apply_ball_jacobian(s: BallJacobian, v) -> np.ndarray:
    """Matvec ``S v`` in O(n), in the original coordinates (see
    :class:`BallJacobian`): sum ``v`` per bin, then on the bins alone
    take the rank-one coefficient ``<hb, sums>``, fold each pooled
    block's two bins into its scaled signed sum, clear the zero block
    and subtract the rank-one term, and gather the bins back."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (s.n,):
        raise ValueError(f"expected shape ({s.n},), got {v.shape}")
    # The result is allocated before the bin sums, so that the bin sums,
    # freed on return, leave no hole in the heap under it.
    out = np.empty(s.n)
    sums = np.bincount(s.label, weights=v, minlength=s.hb.size)
    c = dot(s.hb, sums)
    zero = 2 * s.inv_sizes.size
    pairs = sums[:zero].reshape(-1, 2)
    pairs[:, 0] -= pairs[:, 1]
    pairs[:, 0] *= s.inv_sizes
    np.negative(pairs[:, 0], out=pairs[:, 1])
    sums[zero:zero + 2] = 0.0
    # sums -= c * hb in place: a temporary would be bin-sized, and there
    # are as many bins as coordinates when all blocks are singletons.
    # There are always the zero block's two bins, so hb is never empty,
    # which scipy's daxpy would refuse.
    sums = daxpy(s.hb, sums, a=-c)
    # Every label is a bin, so ``clip`` changes no index; it spares the
    # copy of ``out`` that ``take`` makes in its default ``raise`` mode.
    return np.take(sums, s.label, out=out, mode="clip")
