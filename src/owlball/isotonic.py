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
* the reported blocks are canonical: values strictly decrease from one
  block to the next, with at most one trailing zero block, so the active
  set read off the block structure is the maximal one.

A vector already in the cone (nonincreasing, last entry nonnegative) is
its own projection and skips the PAVA pass; its blocks are its runs of
equal entries, exactly what the PAVA route reports for it.  The dual
solvers start from such a vector (the sorted magnitudes of the input).
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import isotonic_regression

from .core import span_members

__all__ = ["ConeProjection", "project_cone", "strictly_decreasing", "reduce_spans",
           "positive_block_sums", "active_set"]

# Length of the first stretch the in-cone test compares; each later one
# doubles, see _nonincreasing.
_FIRST_STRETCH = 256


class ConeProjection:
    """Result of :func:`project_cone`.

    Attributes
    ----------
    x : ndarray
        The projection; nonincreasing with nonnegative entries.
    block_starts : ndarray of int
        First index of each constant block.  Blocks are half-open
        ``[block_starts[k], block_starts[k+1])`` runs partitioning
        ``range(n)``; values strictly decrease across blocks.
    block_values : ndarray
        Common value of ``x`` on each block (the mean of the input over
        the block, clamped at zero).
    block_lengths : ndarray of int
        Length of each block, computed on first use and kept.
    zero_tail : bool
        The last block is zero (the constraint ``xn >= 0`` is active);
        values strictly decrease, so no other block can be.
    """

    def __init__(self, x, block_starts, block_values):
        self.x = x
        self.block_starts = block_starts
        self.block_values = block_values
        self._lengths = None
        for arr in (x, block_starts, block_values):
            arr.flags.writeable = False

    @property
    def n(self) -> int:
        return self.x.size

    @property
    def num_blocks(self) -> int:
        return self.block_starts.size

    @property
    def block_lengths(self) -> np.ndarray:
        if self._lengths is None:
            starts = self.block_starts
            lengths = np.empty_like(starts)
            np.subtract(starts[1:], starts[:-1], out=lengths[:-1])
            lengths[-1] = self.n - starts[-1]
            lengths.flags.writeable = False
            self._lengths = lengths
        return self._lengths

    @property
    def zero_tail(self) -> bool:
        return bool(self.block_values[-1] == 0.0)

    @property
    def blocks(self) -> list[tuple[int, int, float]]:
        """Blocks as ``(start, end, value)`` tuples with half-open ends."""
        ends = np.append(self.block_starts[1:], self.n)
        return [(int(s), int(e), float(v))
                for s, e, v in zip(self.block_starts, ends, self.block_values)]


def project_cone(d) -> ConeProjection:
    """Euclidean projection of ``d`` onto the monotone nonnegative cone.

    Parameters
    ----------
    d : array_like of shape (n,)
        Any real vector; the input order is used as-is (no sorting).

    Returns
    -------
    ConeProjection
        Minimizer of ``0.5*||x - d||**2`` over nonincreasing nonnegative
        ``x``, with its constant-block structure.  O(n); an input already
        in the cone costs a few streaming passes and no PAVA pass.
    """
    d = np.asarray(d, dtype=np.float64)
    if d.ndim != 1:
        raise ValueError(f"d must be one-dimensional, got shape {d.shape}")
    if d.size == 0:
        raise ValueError("d must not be empty")

    if d[-1] >= 0.0 and _nonincreasing(d):
        # Already in the cone: the projection is d itself, its blocks the
        # runs of equal entries.  Every entry is >= 0, so adding +0.0
        # changes nothing but -0.0, which becomes +0.0 as on the PAVA route.
        x = d + 0.0
        change = np.empty(d.size, dtype=bool)
        change[0] = True
        np.not_equal(x[1:], x[:-1], out=change[1:])
        starts = np.flatnonzero(change)
        values = x if starts.size == d.size else x[starts]
        return ConeProjection(x, starts, values)

    res = isotonic_regression(d, increasing=False)
    bounds = np.asarray(res.blocks, dtype=np.intp)
    starts = bounds[:-1]
    # scipy's x holds each block's mean on the whole block already.  Clamp
    # at zero; given two zeros, np.maximum may return either (numpy 2.4 on
    # x86 returns the second), so +0.0 is added to make every zero +0.0,
    # as the in-cone exit above does.
    x = np.maximum(res.x, 0.0)
    x += 0.0
    values = x if starts.size == d.size else x[starts]

    # Repair pooled runs of identical entries to the exact common value,
    # in values and in x.  Singletons are exact already, and a pooled
    # block whose end points differ is no such run, so only the remaining
    # candidates are checked.
    pooled = np.flatnonzero(np.diff(bounds) > 1)
    first, stop = bounds[pooled], bounds[pooled + 1]
    cand = d[first] == d[stop - 1]
    if cand.any():
        pooled, first, stop = pooled[cand], first[cand], stop[cand]
        tied = (reduce_spans(np.minimum, d, first, stop)
                == reduce_spans(np.maximum, d, first, stop))
        if tied.any():
            pooled, first, stop = pooled[tied], first[tied], stop[tied]
            repaired = np.maximum(d[first], 0.0)
            repaired += 0.0
            values[pooled] = repaired
            x[span_members(first, stop - first)] = np.repeat(repaired, stop - first)

    # Canonical structure: merge adjacent blocks whose clamped values tie
    # (in particular the all-nonpositive tail collapses into one zero block)
    # by keeping only the bounds where the value changes, and both ends.
    if values.size > 1:
        edge = np.empty(bounds.size, dtype=bool)
        edge[0] = edge[-1] = True
        np.not_equal(values[1:], values[:-1], out=edge[1:-1])
        if not edge.all():
            values = values[edge[:-1]]
            bounds = bounds[edge]
            starts = bounds[:-1]
    return ConeProjection(x, starts, values)


def _nonincreasing(d: np.ndarray) -> bool:
    """True when ``d`` is nonincreasing; see :func:`_pairs_hold`."""
    return _pairs_hold(np.less_equal, d)


def strictly_decreasing(d: np.ndarray) -> bool:
    """True when ``d`` is strictly decreasing; see :func:`_pairs_hold`."""
    return _pairs_hold(np.less, d)


def _pairs_hold(compare, d: np.ndarray) -> bool:
    """True when ``compare(d[i + 1], d[i])`` holds for every i.

    The adjacent pairs are compared in stretches of doubling length, and
    the test stops after the first stretch that holds a violation.  A
    vector that fails costs the first stretch, or about twice the
    distance to its first violation if that is more; one that passes
    costs one pass plus ``log2(n / _FIRST_STRETCH)`` calls.  No
    temporary is much over ``n / 2``.
    """
    n = d.size
    start, size = 0, _FIRST_STRETCH
    while start < n - 1:
        stop = min(start + size, n - 1)
        if not compare(d[start + 1:stop + 1], d[start:stop]).all():
            return False
        start, size = stop, 2 * size
    return True


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

    A singleton's sum is its own entry (a view of ``v`` when all blocks
    are singletons); pooled blocks are summed directly by one
    :func:`reduce_spans`, so no error grows with the coordinates before."""
    v = np.asarray(v, dtype=np.float64)
    live = p.num_blocks - int(p.zero_tail)
    if p.num_blocks == p.n:
        return v[:live], np.empty(0, dtype=np.intp)
    starts, lengths = p.block_starts[:live], p.block_lengths[:live]
    sums = v[starts]
    pooled = np.flatnonzero(lengths > 1)
    if pooled.size:
        first = starts[pooled]
        sums[pooled] = reduce_spans(np.add, v, first, first + lengths[pooled])
    return sums, pooled


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
