"""Shared domain types: weight vectors, problem instances, signed sorts.

The ordered weighted L1 (OWL1) norm of a vector ``x`` under a
nonincreasing nonnegative weight vector ``lam`` is the inner product of
``lam`` with the magnitudes of ``x`` sorted in nonincreasing order.  It
interpolates between the L1 norm (all weights one) and a scaled Linf
norm (single positive leading weight).  Everything in this package
revolves around projecting onto a ball of this norm.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Weights",
    "Instance",
    "SignedSort",
    "owl_norm",
    "dual_norm",
    "signed_sort",
    "sorted_dual_norm",
]

# Relative slack used by the trivial-case gate: a point whose norm exceeds
# the radius by at most this factor counts as inside the ball, so the
# solver is never launched on a (numerically) feasible point.
INSIDE_RTOL = 1e-15

# Length of the first stretch pairs_hold compares; each later one doubles.
_FIRST_STRETCH = 256


def _clean_vector(values, name: str) -> np.ndarray:
    """Copy ``values`` into a read-only 1-d float64 array, or complain."""
    arr = np.array(values, dtype=np.float64, copy=True)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must not be empty")
    if not all_finite(arr):
        raise ValueError(f"{name} must contain only finite values")
    arr.flags.writeable = False
    return arr


class Weights:
    """Weight vector defining an OWL1 norm.

    Parameters
    ----------
    values : array_like of shape (n,)
        Nonincreasing, nonnegative weights with ``values[0] > 0``.
        Validation is strict: unsorted or negative input raises instead
        of being silently re-sorted, because reordering the weights
        changes the norm.

    Attributes
    ----------
    values : ndarray
        The validated weights, read-only.
    plateau : int or None
        ``k`` when the weights are a plateau, ``values[0] * 1[:k]``: the
        L1 norm (``k = n``), the Linf norm (``k = 1``) or a top-k norm.
        None otherwise.  Read off the validated values, with no pass over
        them unless the last weight is zero.
    """

    def __init__(self, values):
        arr = _clean_vector(values, "weights")
        if np.any(arr < 0):
            raise ValueError("weights must be nonnegative")
        if np.any(np.diff(arr) > 0):
            raise ValueError("weights must be nonincreasing")
        if arr[0] <= 0:
            raise ValueError("weights must have a positive leading entry "
                             "(an all-zero weight vector defines no norm)")
        self.values = arr
        self.plateau = _plateau_length(arr)

    @property
    def n(self) -> int:
        return self.values.size

    def __repr__(self) -> str:
        return f"Weights(n={self.n}, plateau={self.plateau})"


def _plateau_length(lam: np.ndarray) -> int | None:
    """``k`` when the valid weights ``lam`` equal ``lam[0] * 1[:k]``, else
    None.  Nonincreasing weights are constant iff the last equals the
    first; with a zero last weight the positive ones lead, so ``k`` is
    their count and they are all ``lam[0]`` iff ``lam[k - 1]`` is."""
    if lam[-1] == lam[0]:
        return lam.size
    if lam[-1] > 0.0:
        return None
    k = int(np.count_nonzero(lam))
    return k if lam[k - 1] == lam[0] else None


class Instance:
    """A projection instance: point ``b``, weights, and ball radius ``tau``.

    ``tau`` must be strictly positive; the zero-radius ball degenerates
    to a point and a negative radius is meaningless, so both are
    rejected at construction.
    """

    def __init__(self, b, weights, tau):
        self.b = _clean_vector(b, "b")
        if not isinstance(weights, Weights):
            weights = Weights(weights)
        if weights.n != self.b.size:
            raise ValueError(
                f"b has length {self.b.size} but weights has length {weights.n}")
        tau = float(tau)
        if not np.isfinite(tau) or tau <= 0:
            raise ValueError(f"tau must be positive and finite, got {tau}")
        self.weights = weights
        self.tau = tau

    @property
    def n(self) -> int:
        return self.b.size

    def __repr__(self) -> str:
        return f"Instance(n={self.n}, tau={self.tau})"


class SignedSort:
    """Signed permutation sending a vector to its sorted magnitudes.

    ``P`` is the orthogonal matrix with ``P b = |b| sorted
    nonincreasing``: row ``k`` holds ``-1`` at column ``perm[k]`` where
    ``b[perm[k]]`` has its sign bit set (a -0.0 included) and ``+1``
    elsewhere.  Ties in ``|b|`` are broken by original position, so the
    permutation is a deterministic function of ``b``.  The signs are
    read off ``b`` itself, so the sort stores no array of them.

    Attributes
    ----------
    perm : ndarray of int
        ``perm[k]`` is the original position of the k-th sorted entry.
    b : ndarray
        The vector that was sorted, held by reference and not copied: it
        must not change while the sort is in use.
    """

    def __init__(self, perm, b):
        perm = np.asarray(perm, dtype=np.intp)
        b = np.asarray(b, dtype=np.float64)
        if perm.ndim != 1 or perm.shape != b.shape:
            raise ValueError("perm and b must be 1-d arrays of equal length")
        self.perm = perm
        self.b = b

    @property
    def n(self) -> int:
        return self.perm.size

    def apply_inverse(self, u) -> np.ndarray:
        """Return ``P.T |u|``: ``|u[k]|`` at position ``perm[k]``, with
        the sign of ``b`` there.  Every vector mapped back is nonnegative
        (sorted magnitudes and their cone projections), and for those
        this is ``P.T u``.  The scatter is followed by one sequential
        ``copysign`` pass; where ``b`` is zero the result is a zero of
        the sign of ``b``."""
        u = np.asarray(u, dtype=np.float64)
        if u.size != self.n:
            raise ValueError(f"expected length {self.n}, got {u.size}")
        out = np.empty_like(u)
        out[self.perm] = u
        return np.copysign(out, self.b, out=out)


def vector_and_weights(x, weights, name: str) -> tuple[np.ndarray, Weights]:
    """``x`` as a float64 array and ``weights`` as :class:`Weights`, whose
    checks raw values must pass; ``ValueError`` unless ``x`` is a vector
    of the weights' length.  Finiteness is left to the caller: the norms
    read a NaN as they find it, so a checker may take the norm of an
    answer before it tests the answer for finiteness."""
    if not isinstance(weights, Weights):
        weights = Weights(weights)
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (weights.n,):
        raise ValueError(f"{name} must be a vector of length {weights.n}, got shape {x.shape}")
    return x, weights


def owl_norm(x, weights) -> float:
    """Evaluate the OWL1 norm: dot of sorted magnitudes with the weights.

    Parameters
    ----------
    x : array_like of shape (n,)
    weights : Weights or array_like
        Must have the same length as ``x``; raw values are validated as
        :class:`Weights` (nonincreasing, nonnegative, positive leading
        entry), so an array that defines no norm raises ``ValueError``.

    Returns
    -------
    float
        ``sum(weights[i] * sorted(|x|, descending)[i])``; zero iff
        ``x`` has no nonzero entry under a positive weight.
    """
    x, weights = vector_and_weights(x, weights, "x")
    return dot(np.sort(np.abs(x))[::-1], weights.values)


def dual_norm(y, weights) -> float:
    """Dual of the ordered weighted L1 norm, with ``weights`` taken as by
    :func:`owl_norm`.

    The unit ball of the primal norm has extreme points supported on the
    k largest magnitudes with equal weights ``1 / (lam_1 + ... + lam_k)``,
    so the dual norm is the best ratio of leading-magnitude sums to
    leading-weight sums (:func:`sorted_dual_norm`):

        max_k (|y|^(1) + ... + |y|^(k)) / (lam_1 + ... + lam_k).
    """
    y, weights = vector_and_weights(y, weights, "y")
    return sorted_dual_norm(np.sort(np.abs(y))[::-1], weights.values)


def signed_sort(b) -> tuple[SignedSort, np.ndarray]:
    """Sort magnitudes nonincreasing, remembering how to undo it.

    The permutation equals ``np.argsort(-|b|, kind="stable")`` on every
    finite input.  ``b`` must be finite: a NaN would sort first here and
    last there.  It is computed with one SIMD sort of packed uint64 keys:

    1. Nonnegative doubles order like their bit patterns read as
       unsigned integers, so ``~bits(|b|)`` sorts ascending in the order
       of nonincreasing magnitude.  Its low ``k = bit_length(n-1)`` bits
       are replaced by the position, which makes the keys distinct and
       breaks exact ties by position, the stable tie-break.
    2. After ``np.sort``, ``order = key & (2**k - 1)`` is read in place,
       ``b`` is gathered once and its magnitudes are taken in place,
       ``w = |b[order]|``.  The signs are not stored: the sort keeps
       ``b`` and reads them off it (see :class:`SignedSort`).
    3. Magnitudes that differ only in their low ``k`` bits collide
       after the truncation and come out in position order, not in
       magnitude order.  These are the only inversions there can be,
       and each lies inside a run of equal high bits, so the gathered
       magnitudes are nonincreasing iff ``order`` is the stable
       permutation (an O(n) check).  Otherwise the bounds of each run
       holding an inversion are found by one binary search per end, and
       the runs are re-sorted, see :func:`_sort_collisions`.

    Gaussian input at n = 1e6 has about a dozen inversions, so the
    fix-up costs about 0.03 ms.  The worst case is every key colliding,
    as with ``|b| = 1 + j * ulp``: then the fix-up sorts all n entries
    once more by a stable argsort.  Input that is already in order takes
    the same route as any other.  The arrays are built in place where
    possible and handed to ``SignedSort`` uncopied, since each fresh
    n-vector costs page faults as well as a pass; the sort holds ``b``
    itself, so ``b`` must not change while the sort is in use.  Two
    numpy routes were timed and rejected: ``np.take`` for the gather
    took 2.6-3.7 ms against 2.45 ms for fancy indexing at n = 1e6, and
    ``np.put`` for the inverse sort's scatter 3.46 against 3.85 ms at
    n = 1e6, but 0.29 against 0.17 ms at n = 1e5.  At n = 1e6 on a
    2-vCPU Xeon with numpy 2.4.6 (best of 9 in one process) this
    function takes 12 ms on Gaussian b and on b rounded to 2 decimals,
    11 ms with 6 distinct magnitudes, 10 ms on presorted Gaussian b and
    with all magnitudes equal, and 120 and 20 ms on ``1 + j * ulp`` in
    random and in position order.  No input the benchmark draws is in
    order or collides in every key, so two shortcuts for those cases
    are left out: an in-order test returning ``arange(n)`` (4.2 ms on
    presorted or all-equal magnitudes), and a second packed key in the
    fix-up (43 ms on ``1 + j * ulp`` in random order, but 34 ms in
    position order).

    Returns
    -------
    sort : SignedSort
        The signed permutation ``P`` with ``P b`` sorted (stable
        tie-break on original position), holding ``perm`` and ``b``.
    sorted : ndarray
        The magnitudes in nonincreasing order, ``|b[perm]|`` bit for
        bit: it holds +0.0 where ``b`` holds -0.0.  Mapped back by
        ``sort.apply_inverse``, a zero there becomes -0.0 again, so a
        projection holds -0.0 where ``b`` does.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    k = (n - 1).bit_length()
    low = np.uint64((1 << k) - 1)
    key = np.abs(b).view(np.uint64)
    np.invert(key, out=key)
    key &= ~low
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= low
    # Positions fit in 63 bits; the cast copies only where intp is narrower.
    order = key.view(np.int64).astype(np.intp, copy=False)
    w = b[order]
    np.abs(w, out=w)
    inverted = np.flatnonzero(w[1:] > w[:-1])
    if inverted.size:
        _sort_collisions(order, w, k, inverted)
    order.flags.writeable = False
    return SignedSort(order, b), w


def _sort_collisions(order, w, k: int, inverted) -> None:
    """Put the colliding runs of a packed-key sort in stable order, in place.

    ``w`` holds the gathered magnitudes, nonincreasing except at the
    ``inverted`` positions ``i`` where ``w[i] < w[i+1]``.  A run is a
    maximal stretch whose magnitudes share their bits above the low
    ``k``: with those bits ``H``, the doubles whose bits lie in
    ``[H << k, (H + 1) << k)``.  Outside the runs ``w`` is
    nonincreasing, so ``w`` compared with either end of a run changes
    exactly once along ``w``.  One ``np.searchsorted`` of the ascending
    view ``w[::-1]`` against both ends read as float64 therefore returns
    both bounds of every run holding an inversion.  The top run's upper
    end reads as +inf.  numpy 2.4.6 reads the reversed view strided,
    without a copy: 40 keys take 1.9 us at n = 1e6, as on a contiguous
    array.

    Inside a run the entries stand in position order.  The members of
    the runs are sorted together by one stable argsort of their negated
    magnitudes.  Runs are disjoint in magnitude, so this sorts each run
    in place, and equal magnitudes keep their position order.
    """
    # One high part per run, formed in place of the gather (w holds no
    # sign bit); the inversions of one run are neighbours.
    high = w[inverted].view(np.uint64)
    high >>= k
    high = high[np.append(True, high[1:] != high[:-1])]
    ends = np.array([high, high + 1]) << k
    stop, start = w.size - np.searchsorted(w[::-1], ends.view(np.float64))
    members = span_members(start, stop - start)
    src = members[np.argsort(-w[members], kind="stable")]
    order[members] = order[src]
    w[members] = w[src]


def dot(a, b) -> float:
    """``<a, b>``, the one dot product of every answer the package gives:
    the same bits whatever the BLAS thread count.

    OpenBLAS (0.3, its ddot) splits ``np.dot``'s sum across its threads
    from 10001 entries on, and the split moves the bits.  There
    ``np.einsum``, which sums without BLAS, takes the dot; it sums a
    strided view (such as ``v[::-1]``) in another order than a
    contiguous array, so a strided operand is copied first.  Up to that
    size ``np.dot`` runs on one thread whatever the setting, is faster,
    and keeps the bits it gave before.  An overflow gives inf, with a
    RuntimeWarning from ``np.dot`` only.
    """
    if np.size(a) <= 10_000:
        return float(np.dot(a, b))
    return float(np.einsum("i,i->", np.ascontiguousarray(a), np.ascontiguousarray(b)))


def all_finite(x: np.ndarray) -> bool:
    """True when every entry of ``x`` is finite.  ``<x, x>`` is finite
    only then, and costs one streaming pass with no temporary; only when
    it overflows, with entries from about 1e154 on, are the entries
    tested one by one.  Its bits reach no answer, so it may use BLAS."""
    with np.errstate(over="ignore"):
        squares = np.dot(x, x)
    return bool(np.isfinite(squares)) or bool(np.isfinite(x).all())


def pairs_hold(compare, d: np.ndarray) -> bool:
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


def span_members(starts: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """The indices of the spans ``[starts[j], starts[j] + sizes[j])``,
    concatenated in order, without a Python loop.  There must be at
    least one span."""
    ends = np.cumsum(sizes)
    return np.repeat(starts - (ends - sizes), sizes) + np.arange(ends[-1])


def inside_ball(w: np.ndarray, lam: np.ndarray, radius: float) -> bool:
    """Whether ``<w, lam> <= radius`` (``w`` sorted magnitudes): both
    solvers' feasibility gate.  Outside the ball they need ``<w, lam>``
    and the dual norm, which bounds the dual root, to be finite; an
    overflow raises ``ValueError``.  The dual norm is only computed where
    its bound ``n <w, lam> / lam[0]**2`` overflows (Chebyshev's sum
    inequality on the first k entries, and ``sum(lam[:k]) >= lam[0]``).
    """
    with np.errstate(over="ignore", invalid="ignore"):
        norm = dot(w, lam)
        if norm <= radius:
            return True
        if not (np.isfinite(norm) and (np.isfinite(w.size * norm / lam[0] / lam[0])
                                       or np.isfinite(sorted_dual_norm(w, lam)))):
            raise ValueError(
                f"the norm of b ({norm:g}) or its dual norm overflows float64: "
                "scale b and tau down together by a power of two")
    return False


def sorted_dual_norm(mags, lam) -> float:
    """``max_k (mags[0] + ... + mags[k]) / (lam[0] + ... + lam[k])``: the
    dual norm when ``mags`` are sorted magnitudes.  For any ``w`` in place
    of ``mags`` it is minus the largest ``y`` with ``Pi_C(y lam + w) = 0``,
    where every prefix sum of ``y lam + w`` is nonpositive."""
    return float(np.max(np.cumsum(mags) / np.cumsum(lam)))
