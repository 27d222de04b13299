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
The Newton curvature (:func:`owlball.ssn.block_curvature`) and
:func:`ball_jacobian` read ``lam.T H lam`` and ``H lam`` off its blocks.

The ball projector's Jacobian is ``S = P.T (H - u u.T) P``, with ``P``
the signed sort of the input and ``u = H lam / ||H lam||``.  Through
the sort's permutation the blocks are no longer contiguous, so
:class:`BallJacobian` puts each original coordinate in the bin of its
block, one bin per block of ``H``:

======================  ==========================  =========  ==========
block of ``H``          bin                         inv_sizes  hb
======================  ==========================  =========  ==========
positive pooled, ``j``  ``j`` in ``0..m-1``         ``1/L``    mean of
                                                               ``lam``
zero block              ``m``                       0          0
positive singleton      ``m+1, ...``, in increasing 1          its
                        original position                      ``lam``
======================  ==========================  =========  ==========

with ``hb`` divided by ``||H lam||``.  ``u`` is constant on each block,
so ``hb`` holds it per bin, and the rank-one term folds into the bin
sums: ``<P.T u, v>`` is ``<hb, sums>``, where ``sums`` are the bin sums
of ``signs * v``.  A matvec is one bin sum, O(bins) work on the bins
and one gather back, with no permutation.

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

from .core import sign_or_one

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
    symmetric positive semidefinite.  Each block of ``H`` has a bin of
    its own (see the table in :mod:`owlball.jacobian`), and ``u`` is
    constant on each, so with ``sums`` the bin sums of ``signs * v`` the
    matvec is

        S v = signs * (inv_sizes * sums - <hb, sums> hb)[label]

    in the original coordinates, with no permutation.

    Attributes
    ----------
    label : ndarray of int
        Per coordinate, its bin: ``0`` to ``m-1`` for the positive pooled
        blocks, in sorted order, ``m`` for the zero block, and one bin
        from ``m+1`` on for each positive singleton, numbered in
        increasing original position, so a matvec visits those bins in
        sequence.  ``m`` is the number of positive pooled blocks.
    signs : ndarray
        ``sign(b)``, with zeros counted as ``+1``.
    inv_sizes : ndarray
        Per bin, ``1/L`` on a pooled block of length ``L``, ``0`` on the
        zero block and ``1`` on a singleton: ``H`` as a bin scaling.
    hb : ndarray
        Per bin, the value of ``u`` on its block, without signs: the
        block's mean of ``lam`` (its own weight on a singleton, ``0`` on
        the zero block) over ``||H lam||``.
    """

    label: np.ndarray
    signs: np.ndarray
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
        ``inst``; its sort and final cone projection are reused, so
        building costs O(n) with no sort.

    Raises
    ------
    ValueError
        When ``report`` is None (``b`` is inside the ball), has no sort (a
        dual value, or a bare :func:`owlball.ssn.solve`'s report), has
        another length than ``inst``, or has ``H lam = 0`` (a zero cone
        projection, which no converged solve leaves).
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

    # Sorted-order labels: the pooled blocks 0..m-1, the zero block m,
    # and m+1 for every singleton until they are renumbered below.  Each
    # pooled block's sum of lam is a direct sum, in one sequential pass.
    lam = inst.weights.values
    lengths = cone.block_lengths
    live = lengths.size - int(cone.zero_tail)
    pooled = np.flatnonzero(lengths[:live] > 1)
    m = pooled.size
    singles = live - m
    block_label = np.full(lengths.size, m + 1, dtype=np.intp)
    block_label[pooled] = np.arange(m)
    block_label[live:] = m
    sorted_label = np.repeat(block_label, lengths)
    pooled_sums = np.bincount(sorted_label, weights=lam, minlength=m + 2)[:m]
    pooled_inv = 1.0 / lengths[pooled]

    # The only two scatters through the sort: the labels and lam.  The
    # singletons are renumbered in original order, and their weights
    # read in the same order, through one index array: a boolean mask
    # would be turned into indices on each of the two uses.  (``clip``
    # as in :func:`apply_ball_jacobian`: every index is in range.)
    label = np.empty(n, dtype=np.intp)
    label[sort.perm] = sorted_label
    del sorted_label
    at_single = np.flatnonzero(label > m)
    label[at_single] = np.arange(m + 1, m + 1 + singles)
    hb = np.empty(m + 1 + singles)
    pooled_hb, single_lam = hb[:m], hb[m + 1:]
    moved = np.empty(n)
    moved[sort.perm] = lam
    np.take(moved, at_single, out=single_lam, mode="clip")
    del moved, at_single

    # ||H lam||^2: (sum of lam)^2 / L per pooled block, lam^2 per singleton.
    np.multiply(pooled_sums, pooled_inv, out=pooled_hb)
    norm = math.sqrt(float(np.dot(pooled_sums, pooled_hb))
                     + float(np.dot(single_lam, single_lam)))
    if norm == 0.0:
        raise ValueError("H lam = 0: the report's cone projection is zero, "
                         "so it is no solution on the ball's boundary")
    hb[m] = 0.0
    hb /= norm
    inv_sizes = np.ones(hb.size)
    inv_sizes[:m] = pooled_inv
    inv_sizes[m] = 0.0
    return BallJacobian(label=label, signs=sign_or_one(inst.b),
                        inv_sizes=inv_sizes, hb=hb)


def apply_ball_jacobian(s: BallJacobian, v) -> np.ndarray:
    """Matvec ``S v`` in O(n), in the original coordinates (see
    :class:`BallJacobian`): sum ``signs * v`` per bin, then on the bins
    alone take the rank-one coefficient ``<hb, sums>``, scale by
    ``inv_sizes`` and subtract the rank-one term, and gather the bins
    back with the signs restored."""
    v = np.asarray(v, dtype=np.float64)
    if v.shape != (s.n,):
        raise ValueError(f"expected shape ({s.n},), got {v.shape}")
    tmp = np.multiply(s.signs, v)
    sums = np.bincount(s.label, weights=tmp, minlength=s.hb.size)
    c = float(np.dot(s.hb, sums))
    sums *= s.inv_sizes
    # sums -= c * hb in place: a temporary would be bin-sized, and there
    # are as many bins as coordinates when all blocks are singletons.
    sums = daxpy(s.hb, sums, a=-c)
    # The gather goes into tmp, which is no longer needed: one fresh
    # n-sized array per matvec, not two.  Every label is a bin, so
    # ``clip`` changes no index; it spares the copy of ``out`` that
    # ``take`` makes in its default ``raise`` mode.
    out = np.take(sums, s.label, out=tmp, mode="clip")
    out *= s.signs
    return out
