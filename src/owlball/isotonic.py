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
  ``x``, so a projection keeps only ``x`` and reads them off it on use,
  unless the PAVA pass has handed them over already.

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
           "positive_block_sums", "tied_spans"]

class ConeProjection:
    """Result of :func:`project_cone`: ``x``, and its blocks, which are
    its runs of equal entries, read off it on first use.

    Attributes
    ----------
    x : ndarray
        The projection; nonincreasing with nonnegative entries.
    block_starts : ndarray of int
        First index of each constant block: each index where ``x``
        changes, after 0.  Blocks are half-open ``[block_starts[k],
        block_starts[k+1])`` runs partitioning ``range(n)``; values
        strictly decrease across blocks.  Read off ``x`` on first use and
        kept; :func:`project_cone` sets it from its PAVA pass instead
        where that already holds them.
    block_lengths : ndarray of int
        Length of each block, computed on first use and kept.
    zero_tail : bool
        The last block is zero (the constraint ``xn >= 0`` is active);
        values strictly decrease, so no other block can be.
    zero_start : int
        First index of the zero block, ``n`` when there is none.
    """

    def __init__(self, x):
        self.x = x
        x.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def num_blocks(self) -> int:
        return self.block_starts.size

    @cached_property
    def zero_start(self) -> int:
        return bisect_left(self.x, True, key=lambda v: v <= 0.0)

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
        j = bisect_left(d, True, key=lambda v: v <= 0.0)
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
    # gets back, and at n = 1e6 that cost page faults.
    x = np.empty(n)
    head = np.maximum(res.x, 0.0, out=x[:k])
    head += 0.0
    x[k:] = 0.0

    # Repair pooled runs of identical entries to the exact common value.
    # Singletons are exact already, and a pooled block whose end points
    # differ is no such run, so only the remaining candidates are checked.
    # Neighbours that then tie are one run of x, and so one block.
    bounds = np.asarray(res.blocks, dtype=np.intp)
    pooled = np.flatnonzero(np.diff(bounds) > 1)
    first, stop = bounds[pooled], bounds[pooled + 1]
    tied = tied_spans(d.__getitem__, first, stop)
    if tied.size:
        first, stop = first[tied], stop[tied]
        repaired = np.maximum(d[first], 0.0)
        repaired += 0.0
        x[span_members(first, stop - first)] = np.repeat(repaired, stop - first)
        return ConeProjection(x)
    # Unrepaired, scipy's blocks are the runs of x, since their means
    # strictly decrease, except that the clamp pools those from the zero
    # start on into one zero block.  So no pass over x is needed for them.
    p = ConeProjection(x)
    starts = bounds[:-1]
    zero = p.zero_start
    if zero < n:
        starts = np.append(starts[:np.searchsorted(starts, zero)], zero)
    starts.flags.writeable = False
    p.__dict__["block_starts"] = starts
    return p


def tied_spans(d_at, first, stop) -> np.ndarray:
    """Indices of the spans ``[first[j], stop[j])`` of a vector ``d``
    over which ``d`` is one bitwise value; ``d_at(i)`` gives the entries
    of ``d`` at the indices ``i``.

    Only the spans whose two ends tie are read in full, so a caller can
    hand in a ``d`` that it computes only where it is read.
    """
    cand = np.flatnonzero(d_at(first) == d_at(stop - 1))
    if cand.size:
        sizes = stop[cand] - first[cand]
        d = d_at(span_members(first[cand], sizes))
        offsets = np.cumsum(sizes) - sizes
        cand = cand[np.minimum.reduceat(d, offsets) == np.maximum.reduceat(d, offsets)]
    return cand


def _nonincreasing(d: np.ndarray) -> bool:
    """True when ``d`` is nonincreasing; see :func:`owlball.core.pairs_hold`."""
    return pairs_hold(np.less_equal, d)


def strictly_decreasing(d: np.ndarray) -> bool:
    """True when ``d`` is strictly decreasing; see :func:`owlball.core.pairs_hold`."""
    return pairs_hold(np.less, d)


def reduce_spans(ufunc, v, starts, stops) -> np.ndarray:
    """``ufunc.reduce(v[s:t])`` for each span ``[s, t)`` of ``starts, stops``.

    The spans must be nonempty, ascending and disjoint, and there must be
    at least one.  One ``reduceat`` over the interleaved bounds does the
    work: its even slots are the spans, its odd slots the gaps between
    them, which are discarded.  Unlike a ``reduceat`` over every block,
    the gaps cost no per-slot overhead however many singletons they hold.
    A stop equal to ``v.size`` is dropped, since ``reduceat`` rejects it
    and the last slot runs to the end of ``v`` anyway.
    """
    bounds = np.column_stack((starts, stops)).ravel()
    if bounds[-1] == v.size:
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
    if pooled.size:
        first = starts[pooled]
        sums[pooled] = reduce_spans(np.add, v, first, first + lengths[pooled])
    return sums, pooled
