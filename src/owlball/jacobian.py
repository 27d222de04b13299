"""Generalized Jacobians of the cone and ball projectors as O(n) operators.

The projector onto the monotone nonnegative cone is piecewise linear,
and on the piece of a projection ``p`` its Jacobian ``H`` is fixed by
the blocks of ``p`` (``block_starts`` and ``zero_tail``):

* a pooled block (two or more coordinates) with a positive value maps
  the input to its mean, replicated over the block;
* the zero block, which can only be the last one, maps to zero;
* a singleton block with a positive value passes its coordinate through.

So ``H = D + U U.T`` with ``D`` a 0/1 diagonal (the positive singletons)
and one column of ``U`` per positive pooled block of length ``L``,
holding ``1/sqrt(L)`` on it.  ``H`` is never formed: one table,
:class:`ConeJacobian`, gives each coordinate a label (its positive
pooled block, "singleton" or "zero") and each label a ``1/L``, and
:func:`apply_cone_jacobian` is the one matvec.

The ball projector's Jacobian is ``S = P.T (H - u u.T) P``, with ``P``
the signed sort of the input and ``u = H lam / ||H lam||``.  The matvec
reads labels, never positions, so :class:`BallJacobian` holds the same
table relabelled through the sort's permutation, in the original
coordinates, and its matvec needs no permutation.

The dense reference ``I - B_G.T (B_G B_G.T)^-1 B_G`` for a tight set
``G`` lives in :mod:`owlball.oracle`, which also maps ``G`` to blocks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import sign_or_one
from .isotonic import ConeProjection, positive_block_sums

__all__ = [
    "ConeJacobian",
    "BallJacobian",
    "cone_jacobian",
    "apply_cone_jacobian",
    "ball_jacobian",
    "apply_ball_jacobian",
]


class ConeJacobian:
    """Implicit projector Jacobian ``H = D + U U.T`` on one piece, as a
    label table built from block form: ``block_starts`` (blocks partition
    ``range(n)``), ``zero_tail`` (the last block is pinned at zero), ``n``.

    Attributes
    ----------
    label : ndarray of int
        Per coordinate: the index of its positive pooled block (``0`` to
        ``m-1``), ``m`` for a positive singleton, ``m+1`` for the zero
        block, where ``m`` is the number of positive pooled blocks.
    inv_sizes : ndarray
        ``1/L`` for each positive pooled block, then ``0`` for the
        singleton and zero labels; length ``m+2``.
    keep : ndarray
        ``1.0`` on the positive singletons, which ``H`` passes through,
        ``0.0`` elsewhere.  Stored as floats, since a multiply streams
        where a masked copy branches on every coordinate.
    """

    def __init__(self, block_starts, zero_tail: bool, n: int):
        lengths = np.diff(np.asarray(block_starts, dtype=np.intp), append=int(n))
        block_label, inv_sizes = _block_table(lengths, zero_tail)
        self._hold(np.repeat(block_label, lengths), inv_sizes)

    @classmethod
    def _relabelled(cls, label: np.ndarray, inv_sizes: np.ndarray) -> ConeJacobian:
        """The table with its labels given per coordinate, in any order."""
        self = cls.__new__(cls)
        self._hold(label, inv_sizes)
        return self

    def _hold(self, label: np.ndarray, inv_sizes: np.ndarray) -> None:
        self.label = label
        self.inv_sizes = inv_sizes
        self.keep = (label == inv_sizes.size - 2).astype(np.float64)

    @property
    def n(self) -> int:
        return self.label.size


def _block_table(lengths: np.ndarray, zero_tail: bool) -> tuple[np.ndarray, np.ndarray]:
    """The label of each block, and ``inv_sizes`` (see :class:`ConeJacobian`)."""
    live = lengths.size - int(zero_tail)
    pooled = np.flatnonzero(lengths[:live] > 1)
    m = pooled.size
    block_label = np.full(lengths.size, m, dtype=np.intp)
    block_label[pooled] = np.arange(m)
    block_label[live:] = m + 1
    inv_sizes = np.zeros(m + 2)
    inv_sizes[:m] = 1.0 / lengths[pooled]
    return block_label, inv_sizes


@dataclass(frozen=True)
class BallJacobian:
    """Implicit Jacobian ``S = P.T (H - u u.T) P`` of the ball projector.

    ``P`` is the signed sort of the instance, ``H`` the cone-projector
    Jacobian at the solution, and ``u = H lam / ||H lam||``.  ``S`` is
    symmetric positive semidefinite.  Everything is held in the original
    coordinates, so the matvec

        S v = signs * H (signs * v) - unit * <unit, v>

    needs no permutation.

    Attributes
    ----------
    table : ConeJacobian
        The table of ``H``, coordinate ``perm[k]`` labelled as sorted
        position ``k``.
    signs : ndarray
        ``sign(b)``, with zeros counted as ``+1``.
    unit : ndarray
        ``P.T u``.
    """

    table: ConeJacobian
    signs: np.ndarray
    unit: np.ndarray

    @property
    def n(self) -> int:
        return self.table.n


def cone_jacobian(p: ConeProjection) -> ConeJacobian:
    """Jacobian of the cone projector on the piece selected by ``p``.

    Read off the canonical blocks of ``p``, so the tight set is the
    maximal one; O(n).
    """
    return ConeJacobian(p.block_starts, p.zero_tail, p.n)


def apply_cone_jacobian(h: ConeJacobian, v) -> np.ndarray:
    """Matvec ``H v`` in O(n): sum ``v`` per label, scale by ``1/L``,
    gather the means back and add the singletons' own entries.  Each
    mean is a direct sum, so its error does not grow with the
    coordinates before it."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != h.n:
        raise ValueError(f"expected length {h.n}, got {v.size}")
    return _apply_table(h, v, np.empty_like(v))


def _apply_table(h: ConeJacobian, v: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """``H v`` for a checked ``v``; ``scratch``, maybe ``v``, gets ``keep * v``."""
    means = np.bincount(h.label, weights=v, minlength=h.inv_sizes.size)
    means *= h.inv_sizes
    out = means[h.label]
    out += np.multiply(h.keep, v, out=scratch)
    return out


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
    if sort.n != inst.n or cone.n != inst.n:
        raise ValueError(f"report has length {sort.n} (sort) and {cone.n} "
                         f"(cone projection), instance has length {inst.n}")

    # H lam: lam itself on positive singletons, its block mean on pooled
    # blocks, zero on the zero block.
    lengths = cone.block_lengths
    sums, pooled = positive_block_sums(cone, inst.weights.values)
    block_hlam = np.zeros(cone.num_blocks)
    block_hlam[:sums.size] = sums
    if pooled.size:
        block_hlam[pooled] /= lengths[pooled]
    hlam = np.repeat(block_hlam, lengths)
    norm = float(np.linalg.norm(hlam))
    if norm == 0.0:
        raise ValueError("H lam = 0: the report's cone projection is zero, "
                         "so it is no solution on the ball's boundary")
    hlam /= norm
    hlam *= sort.signs

    # The only two scatters through the sort: the table's labels and u.
    block_label, inv_sizes = _block_table(lengths, cone.zero_tail)
    label = np.empty(inst.n, dtype=np.intp)
    label[sort.perm] = np.repeat(block_label, lengths)
    unit = np.empty_like(hlam)
    unit[sort.perm] = hlam
    return BallJacobian(table=ConeJacobian._relabelled(label, inv_sizes),
                        signs=sign_or_one(inst.b), unit=unit)


def apply_ball_jacobian(s: BallJacobian, v) -> np.ndarray:
    """Matvec ``S v`` in O(n), in the original coordinates (see
    :class:`BallJacobian`)."""
    v = np.asarray(v, dtype=np.float64)
    if v.size != s.n:
        raise ValueError(f"expected length {s.n}, got {v.size}")
    tmp = np.multiply(s.signs, v)
    out = _apply_table(s.table, tmp, tmp)
    out *= s.signs
    out -= np.multiply(s.unit, float(np.dot(s.unit, v)), out=tmp)
    return out
