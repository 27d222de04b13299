"""Projection onto the monotone nonnegative cone ``x1 >= ... >= xn >= 0``.

The unconstrained-order part is plain nonincreasing isotonic regression,
solved by the pool-adjacent-violators algorithm (PAVA): a single
left-to-right pass with a stack of blocks, merging while a block mean
violates the ordering against its predecessor.  The nonnegativity
constraint is then a clamp of the pooled values at zero, which cannot
trigger further merging.  We delegate the PAVA pass to
``scipy.optimize.isotonic_regression`` (a C implementation of exactly
this stack algorithm) and keep two guarantees on top of it:

* pooling a run of bitwise-identical entries returns that entry
  bit-for-bit (no ``sum/k`` roundoff), so projecting an already feasible
  vector is exactly the identity;
* the blocks are canonical: values strictly decrease from one block to
  the next, with at most one trailing zero block, so the active set read
  off them is the maximal one.  They are the runs of equal entries of
  ``x``.

A :class:`ConeProjection` is the one record of a projection's blocks
that the Newton solver and the Jacobian share.  Its producer hands it
the block starts where it holds them: the PAVA pass, or the Newton
solve writing ``x`` off its own blocks, which also hands over each
positive block's sum of the weights ``lam``.  Where no PAVA pass ran,
or a tie repair (see :func:`repair_ties`) tied a block with its
neighbour, the starts are read off ``x`` on first use.  Where it
carries no sums, a reader sums ``lam`` over the blocks itself (see
:func:`positive_block_sums`).

A nonincreasing vector skips the PAVA pass: its projection is
``max(d, 0)``.  The dual solvers start from such a vector (the sorted
magnitudes of the input), and with constant weights every point they
project is one.

A caller that knows the projection vanishes from some index ``k`` on
passes only the first ``k`` entries and the full length (see
:func:`project_cone`); both dual solvers know such a ``k`` once they
have a point above the root.  Entries may carry weights: the Newton
solver projects the blocks of an earlier projection, one weighted entry
each.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property

import numpy as np
from scipy.optimize import isotonic_regression

from .core import all_finite, pairs_hold, span_members

__all__ = ["ConeProjection", "project_cone", "strictly_decreasing", "reduce_spans",
           "positive_block_sums", "repair_ties"]

class ConeProjection:
    """A cone projection ``x`` and its blocks, which are its runs of
    equal entries: the result of :func:`project_cone`, or of the Newton
    solve's write of ``x`` off its blocks (:func:`owlball.ssn.write_cone`).

    Attributes
    ----------
    x : ndarray
        The projection; nonincreasing with nonnegative entries.
    block_starts : ndarray of int
        First index of each constant block: each index where ``x``
        changes, after 0.  Blocks are half-open ``[block_starts[k],
        block_starts[k+1])`` runs partitioning ``range(n)``; values
        strictly decrease across blocks.  Given by the producer where it
        holds them (a PAVA pass, the Newton solve's blocks); else read
        off ``x`` on first use and kept.
    lam_sums : ndarray or None
        Per block with a positive value (all but a zero tail), its sum
        of the weights ``lam``, where the Newton solve wrote ``x`` off
        its blocks; None otherwise, and a reader then sums ``lam``
        itself (:func:`positive_block_sums`).
    block_lengths : ndarray of int
        Length of each block, computed on first use and kept.
    zero_tail : bool
        The last block is zero (the constraint ``xn >= 0`` is active);
        values strictly decrease, so no other block can be.
    zero_start : int
        First index of the zero block, ``n`` when there is none.
    """

    def __init__(self, x, block_starts=None, lam_sums=None):
        self.x = x
        x.flags.writeable = False
        if block_starts is not None:
            block_starts.flags.writeable = False
            self.block_starts = block_starts
        self.lam_sums = lam_sums

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def num_blocks(self) -> int:
        return self.block_starts.size

    @cached_property
    def zero_start(self) -> int:
        return _first_nonpositive(self.x)

    @property
    def zero_tail(self) -> bool:
        return bool(self.x[-1] == 0.0)

    @cached_property
    def block_starts(self) -> np.ndarray:
        # x[zero_start:] is one block, so x[zero_start + 1:] is not read.
        x = self.x
        m = min(self.zero_start + 1, x.size)
        change = np.empty(m, dtype=bool)
        change[0] = True
        np.not_equal(x[1:m], x[:m - 1], out=change[1:])
        starts = np.flatnonzero(change)
        starts.flags.writeable = False
        return starts

    @cached_property
    def block_lengths(self) -> np.ndarray:
        starts = self.block_starts
        lengths = np.empty_like(starts)
        np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
        lengths[-1] = self.n - starts[-1]
        lengths.flags.writeable = False
        return lengths


def project_cone(d, n: int | None = None, weights=None) -> ConeProjection:
    """Euclidean projection of ``d`` onto the monotone nonnegative cone.

    Parameters
    ----------
    d : array_like of shape (k,)
        Any finite real vector; the input order is used as-is (no
        sorting).  A NaN or an infinity raises ``ValueError``.
    n : int, optional
        Length of the result, at least ``k`` (the default); entries from
        ``k`` on are zero.  This is the projection of any length-``n``
        vector that starts with ``d`` and whose projection is zero from
        ``k`` on: with ``x[k] = 0`` the constraint ``x[k-1] >= x[k]`` is
        the prefix's own ``x[k-1] >= 0``.  Only ``d`` is projected.
    weights : array_like of shape (k,), optional
        Positive weights of the entries (ones if omitted).  The Newton
        solver projects the blocks of an earlier projection this way,
        one entry per block with its length as weight (see
        :mod:`owlball.ssn`).

    Returns
    -------
    ConeProjection
        Minimizer of ``0.5 * sum(weights * (x - d)**2)`` over
        nonincreasing nonnegative ``x``, with its constant-block
        structure.  O(k); a nonincreasing ``d`` costs a few streaming
        passes and no PAVA pass, whatever the weights.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"d must be one-dimensional, got shape {d.shape}")
    k = d.size
    if k == 0:
        raise ValueError("d must not be empty")
    if not all_finite(d):
        raise ValueError("d must contain only finite values")
    n = k if n is None else int(n)
    if n < k:
        raise ValueError(f"n must be at least len(d) = {k}, got {n}")
    if weights is not None and np.shape(weights) != d.shape:
        raise ValueError(f"weights must have the shape of d, {d.shape}")

    if _nonincreasing(d):
        # The projection is max(d, 0): d up to its first entry <= 0, +0.0
        # from there on, as on the PAVA route.
        j = _first_nonpositive(d)
        x = np.empty(n)
        x[:j] = d[:j]
        x[j:] = 0.0
        return ConeProjection(x)

    res = isotonic_regression(d, weights=weights, increasing=False)
    # scipy's x holds each block's mean on the whole block already.  Clamp
    # at zero; given two zeros, np.maximum may return either (numpy 2.4 on
    # x86 returns the second), so +0.0 is added to make every zero +0.0,
    # as the exit above does.  The result is allocated only now: an
    # n-sized array taken before scipy's call changes which memory scipy
    # gets back, and at n = 1e6 that cost page faults.  scipy's x is not
    # read again, so it is dropped before the tie repair's temporaries.
    x = np.empty(n)
    head = np.maximum(res.x, 0.0, out=x[:k])
    head += 0.0
    x[k:] = 0.0
    res.x = None

    if repair_ties(x, d.__getitem__, res.blocks):
        return ConeProjection(x)
    # Unless a repair tied two of them, scipy's blocks are the runs of x,
    # since their means strictly decrease, except that the clamp pools
    # those from the zero start on into one zero block.  So no pass over x
    # is needed for them.
    starts = np.asarray(res.blocks[:-1], dtype=np.intp)
    zero = _first_nonpositive(x)
    if zero < n:
        starts = np.append(starts[:np.searchsorted(starts, zero)], zero)
    return ConeProjection(x, starts)


def repair_ties(x, d_at, bounds) -> bool:
    """Give each pooled block of ``x`` over which the projected vector
    ``d`` is one bitwise value that value, so a pooled run of identical
    entries reads back bit for bit (no ``sum/k`` roundoff).

    ``x`` holds one value on each block ``[bounds[j], bounds[j + 1])``
    and ``d_at(i)`` gives ``d``'s entries at the indices ``i``, so a
    caller can hand in a ``d`` that it computes only where it is read;
    only the blocks whose two ends tie are read in full.  The value is
    clipped between the neighbouring blocks' values (0 after the last),
    so ``x`` stays exactly nonincreasing, and a zero is +0.0.  Returns
    whether a repaired block now ties with a neighbour: the blocks are
    then no longer the runs of ``x``.
    """
    pooled = np.flatnonzero(np.diff(bounds) > 1)
    first, stop = bounds[pooled], bounds[pooled + 1]
    tied = d_at(first) == d_at(stop - 1)
    first, stop = first[tied], stop[tied]
    if first.size:
        size = stop - first
        d = d_at(span_members(first, size))
        offsets = np.cumsum(size) - size
        tied = np.minimum.reduceat(d, offsets) == np.maximum.reduceat(d, offsets)
        first, stop = first[tied], stop[tied]
    if not first.size:
        return False
    entry = np.maximum(d_at(first), 0.0) + 0.0
    upper = np.where(first > 0, x[first - 1], np.inf)
    lower = np.where(stop < x.size, x[np.minimum(stop, x.size - 1)], 0.0)
    # A repaired neighbour bounds by its entry: PAVA may split a run of
    # one value into blocks whose means differ by roundoff.
    joined = stop[:-1] == first[1:]
    upper[1:][joined] = entry[:-1][joined]
    lower[:-1][joined] = entry[1:][joined]
    repaired = np.clip(entry, lower, upper)
    x[span_members(first, stop - first)] = np.repeat(repaired, stop - first)
    return bool(np.any((repaired == lower) | (repaired == upper)))


def _first_nonpositive(v: np.ndarray) -> int:
    """Index of the first entry ``<= 0`` of a nonincreasing ``v``
    (``v.size`` if none), by bisection."""
    return bisect_left(v, True, key=lambda e: e <= 0.0)


def _nonincreasing(d: np.ndarray) -> bool:
    """True when ``d`` is nonincreasing; see :func:`owlball.core.pairs_hold`."""
    return pairs_hold(np.less_equal, d)


def strictly_decreasing(d: np.ndarray) -> bool:
    """True when ``d`` is strictly decreasing; see :func:`owlball.core.pairs_hold`."""
    return pairs_hold(np.less, d)


def reduce_spans(ufunc, v, starts, stops) -> np.ndarray:
    """``ufunc.reduce(v[s:t])`` for each span ``[s, t)`` of ``starts, stops``.

    The spans must be nonempty, ascending and disjoint; with none, the
    result is empty.  One ``reduceat`` over the interleaved bounds does the
    work: its even slots are the spans, its odd slots the gaps between
    them, which are discarded.  Unlike a ``reduceat`` over every block,
    the gaps cost no per-slot overhead however many singletons they hold.
    A stop equal to ``v.size`` is dropped, since ``reduceat`` rejects it
    and the last slot runs to the end of ``v`` anyway.
    """
    bounds = np.column_stack((starts, stops)).ravel()
    if bounds.size and bounds[-1] == v.size:
        bounds = bounds[:-1]
    return ufunc.reduceat(v, bounds)[::2]


def positive_block_sums(p: ConeProjection, v) -> tuple[np.ndarray, np.ndarray]:
    """Sums of ``v`` over the blocks of ``p`` with a positive value (all
    but a zero tail), and the indices of the pooled ones among them.

    A singleton's sum is its own entry; pooled blocks are summed directly
    by one :func:`reduce_spans`, so no error grows with the coordinates
    before."""
    v = np.asarray(v, dtype=np.float64)
    live = p.num_blocks - int(p.zero_tail)
    starts, lengths = p.block_starts[:live], p.block_lengths[:live]
    sums = v[starts]
    pooled = np.flatnonzero(lengths > 1)
    first = starts[pooled]
    sums[pooled] = reduce_spans(np.add, v, first, first + lengths[pooled])
    return sums, pooled
