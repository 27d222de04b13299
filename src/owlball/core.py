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
    "signed_sort",
    "sign_or_one",
    "sorted_dual_norm",
    "plateau_model_root",
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
    if not np.all(np.isfinite(arr)):
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
        return f"Weights({self.values.tolist()!r})"


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

    ``apply(v)`` computes ``P v`` where ``P`` is the orthogonal matrix
    with ``P b = |b| sorted nonincreasing``; ``apply_inverse`` computes
    ``P.T v``.  Ties in ``|b|`` are broken by original position and the
    sign of a zero entry is recorded as ``+1``, so the permutation is a
    deterministic function of ``b``.

    Attributes
    ----------
    perm : ndarray of int
        ``perm[k]`` is the original position of the k-th sorted entry.
    signs : ndarray
        ``+1.0`` or ``-1.0`` per sorted position.
    """

    def __init__(self, perm, signs):
        perm = np.array(perm, dtype=np.intp, copy=True)
        signs = np.array(signs, dtype=np.float64, copy=True)
        if perm.ndim != 1 or perm.shape != signs.shape:
            raise ValueError("perm and signs must be 1-d arrays of equal length")
        if not np.all(np.abs(signs) == 1.0):
            raise ValueError("signs must be +1 or -1")
        perm.flags.writeable = False
        signs.flags.writeable = False
        self.perm = perm
        self.signs = signs

    @classmethod
    def _adopt(cls, perm: np.ndarray, signs: np.ndarray) -> SignedSort:
        """Wrap fresh, valid arrays from :func:`signed_sort` without copying
        or re-checking them (both would cost passes over n-sized arrays)."""
        self = cls.__new__(cls)
        perm.flags.writeable = False
        signs.flags.writeable = False
        self.perm = perm
        self.signs = signs
        return self

    @property
    def n(self) -> int:
        return self.perm.size

    def apply(self, v) -> np.ndarray:
        """Return ``P v``: permute then flip signs."""
        v = np.asarray(v, dtype=np.float64)
        if v.size != self.n:
            raise ValueError(f"expected length {self.n}, got {v.size}")
        return self.signs * v[self.perm]

    def apply_inverse(self, u) -> np.ndarray:
        """Return ``P.T u``; exact inverse of :meth:`apply` (P is orthogonal)."""
        u = np.asarray(u, dtype=np.float64)
        if u.size != self.n:
            raise ValueError(f"expected length {self.n}, got {u.size}")
        out = np.empty_like(u)
        out[self.perm] = self.signs * u
        return out


def owl_norm(x, weights) -> float:
    """Evaluate the OWL1 norm: dot of sorted magnitudes with the weights.

    Parameters
    ----------
    x : array_like of shape (n,)
    weights : Weights or array_like
        Must have the same length as ``x``.

    Returns
    -------
    float
        ``sum(weights[i] * sorted(|x|, descending)[i])``; zero iff
        ``x`` has no nonzero entry under a positive weight.
    """
    x = np.asarray(x, dtype=np.float64)
    lam = weights.values if isinstance(weights, Weights) else np.asarray(weights)
    if x.size != lam.size:
        raise ValueError(f"x has length {x.size} but weights has length {lam.size}")
    mags = np.sort(np.abs(x))[::-1]
    return float(np.dot(mags, lam))


def signed_sort(b) -> tuple[SignedSort, np.ndarray]:
    """Sort magnitudes nonincreasing, remembering how to undo it.

    The permutation equals ``np.argsort(-|b|, kind="stable")`` on every
    finite input.  ``b`` must be finite: a NaN would sort first here and
    last there.  When ``|b|`` is already nonincreasing the permutation
    is ``arange(n)``; the in-order test stops at the first violation, so
    other inputs pay only for the first few hundred pairs.  Otherwise it
    is computed with one SIMD sort of packed uint64 keys:

    1. Nonnegative doubles order like their bit patterns read as
       unsigned integers, so ``~bits(|b|)`` sorts ascending in the order
       of nonincreasing magnitude.  Its low ``k = bit_length(n-1)`` bits
       are replaced by the position, which makes the keys distinct and
       breaks exact ties by position, the stable tie-break.
    2. After ``np.sort``, ``order = key & (2**k - 1)`` is read in place
       and ``b`` is gathered once.
    3. Magnitudes that differ only in their low ``k`` bits collide
       after the truncation and come out in position order, not in
       magnitude order.  These are the only inversions there can be,
       and each lies inside a run of equal high bits, so the gathered
       magnitudes are nonincreasing iff ``order`` is the stable
       permutation (an O(n) check).  Otherwise each run holding an
       inversion is re-sorted, see :func:`_sort_collisions`.

    Gaussian input at n = 1e6 has a few dozen collisions, so the fix-up
    costs well under a millisecond.  The worst case is every key
    colliding, as with ``|b| = 1 + j * ulp``: then the fix-up sorts all
    n entries once more, with a second packed key, or with a stable
    argsort where that key would not fit in 64 bits.  In position order
    those magnitudes increase, so the in-order test does not reach them.
    The arrays are built in place where possible and handed to
    ``SignedSort`` uncopied, since each fresh n-vector costs page faults
    as well as a pass.  At n = 1e6 on a loaded 2-vCPU Xeon with numpy
    2.4.6 (best of 7) this function takes 34 ms on Gaussian b, 35 ms on b
    rounded to 2 decimals, 29 ms with 6 distinct magnitudes, 9 ms with
    all magnitudes equal, and 113 and 82 ms on ``1 + j * ulp`` in random
    and in position order.

    Returns
    -------
    sort : SignedSort
        The signed permutation ``P`` with ``P b`` sorted (stable
        tie-break on original position; zero entries get sign ``+1``).
    sorted : ndarray
        ``|b|`` in nonincreasing order, equal to ``sort.apply(b)``.
    """
    b = np.asarray(b, dtype=np.float64)
    n = b.size
    mags = np.abs(b)
    if pairs_hold(np.less_equal, mags):
        return _presorted(b, mags)
    k = (n - 1).bit_length()
    low = np.uint64((1 << k) - 1)
    key = mags.view(np.uint64)
    np.invert(key, out=key)
    key &= ~low
    key |= np.arange(n, dtype=np.uint64)
    key.sort()
    key &= low
    # Positions fit in 63 bits; the cast copies only where intp is narrower.
    order = key.view(np.int64).astype(np.intp, copy=False)
    w, signs = _gather_signed(b, order)
    inverted = np.flatnonzero(w[1:] > w[:-1])
    if inverted.size:
        _sort_collisions(order, signs, w, k, inverted)
    return SignedSort._adopt(order, signs), w


def _presorted(b: np.ndarray, mags: np.ndarray) -> tuple[SignedSort, np.ndarray]:
    """:func:`signed_sort` of a ``b`` whose magnitudes ``mags`` are
    nonincreasing: the stable permutation is ``arange(n)``.  The sorted
    magnitudes overwrite ``mags``; as in the gather, they keep the -0.0
    of a negative zero."""
    order = np.arange(b.size, dtype=np.intp)
    signs = sign_or_one(b)
    return SignedSort._adopt(order, signs), np.multiply(signs, b, out=mags)


def _sort_collisions(order, signs, w, k: int, inverted) -> None:
    """Put the colliding runs of a packed-key sort in stable order, in place.

    ``w`` holds the gathered magnitudes, nonincreasing except at the
    ``inverted`` positions ``i`` where ``w[i] < w[i+1]``.  A run is a
    maximal stretch whose magnitudes share all bits above the low ``k``;
    runs follow each other in decreasing magnitude, and inside a run the
    entries stand in position order.  Every run holding an inversion is
    re-sorted by magnitude, keeping position order among equal ones.

    The members of those runs are sorted together by one packed key:
    run rank, then the complemented low ``k`` bits of the magnitude,
    then the member's index.  When the three do not fit in 64 bits (only
    possible above n = 2**21, with over 2**(64-2k) colliding runs), a
    stable argsort of the members' negated magnitudes does the same job.
    """
    # Each run holding an inversion, found from its first inversion
    # (leftwards) and its last (rightwards).  Inversions are ascending
    # and the runs contiguous, so those of one run are consecutive.
    high = _high_bits(w, inverted, k)
    cut = np.flatnonzero(high[1:] != high[:-1]) + 1
    del high
    first = inverted[np.append(0, cut)]
    last = inverted[np.append(cut - 1, inverted.size - 1)]
    lo = first - _run_reach(w, k, first, -1)
    sizes = last + _run_reach(w, k, last, 1) + 1 - lo
    members = span_members(lo, sizes)
    m = members.size
    index_bits = (m - 1).bit_length()
    if (lo.size - 1).bit_length() + k + index_bits <= 64:
        key = np.repeat(np.arange(lo.size, dtype=np.uint64) << (k + index_bits), sizes)
        low = np.uint64((1 << k) - 1)
        rest = w[members].view(np.uint64)
        rest &= low
        np.subtract(low, rest, out=rest)
        rest <<= index_bits
        key |= rest
        key |= np.arange(m, dtype=np.uint64)
        key.sort()
        key &= np.uint64((1 << index_bits) - 1)
        src = members[key.view(np.int64)]
    else:
        src = members[np.argsort(-w[members], kind="stable")]
    order[members] = order[src]
    signs[members] = signs[src]
    w[members] = w[src]


def _high_bits(w: np.ndarray, at: np.ndarray, k: int) -> np.ndarray:
    """The bits of ``w[at]`` above the low ``k``, sign bit shifted out
    first, so that -0.0 (left in ``w`` by a negative zero in ``b``) and
    0.0 agree.  Formed in place of the gather."""
    high = w[at].view(np.uint64)
    high <<= 1
    high >>= k + 1
    return high


def _run_reach(w: np.ndarray, k: int, at: np.ndarray, step: int) -> np.ndarray:
    """How far each run extends from ``at`` in the direction ``step``.

    For each index ``i`` of ``at``, the largest ``r`` such that
    ``w[i + step * j]`` has the high bits of ``w[i]`` for all
    ``0 <= j <= r``.  ``w`` is nonincreasing in its high bits, so that
    set of ``j`` is a prefix.  The search gallops (offsets 1, 2, 4, ...)
    until it leaves the run or ``w``, then bisects, all vectorized over
    ``at``; it reads O(log(run length)) entries of ``w`` per index.
    """
    high = _high_bits(w, at, k)
    room = w.size - 1 - at if step > 0 else at       # largest offset in w
    inside = np.zeros(at.size, dtype=np.intp)          # offset known in the run
    beyond = np.ones(at.size, dtype=np.intp)           # offset not known yet
    todo = np.arange(at.size)
    while todo.size:
        todo = todo[beyond[todo] <= room[todo]]
        probe = beyond[todo]
        same = _high_bits(w, at[todo] + step * probe, k) == high[todo]
        todo = todo[same]
        inside[todo] = beyond[todo]
        beyond[todo] *= 2
    # Now inside is in the run and beyond is past it or past the edge.
    np.minimum(beyond, room + 1, out=beyond)
    todo = np.flatnonzero(beyond - inside > 1)
    while todo.size:
        mid = (inside[todo] + beyond[todo]) // 2
        same = _high_bits(w, at[todo] + step * mid, k) == high[todo]
        inside[todo[same]] = mid[same]
        beyond[todo[~same]] = mid[~same]
        todo = todo[beyond[todo] - inside[todo] > 1]
    return inside


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


def _gather_signed(b: np.ndarray, order: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(signs * b[order], signs)`` with ``signs = sign(b[order])``, zeros
    counted as ``+1``; the product is formed in place of the gather."""
    sorted_b = b[order]
    signs = sign_or_one(sorted_b)
    return np.multiply(signs, sorted_b, out=sorted_b), signs


def sign_or_one(x: np.ndarray) -> np.ndarray:
    """``sign(x)`` with zeros counted as ``+1``, the convention of
    :class:`SignedSort`."""
    signs = np.sign(x)
    signs[signs == 0.0] = 1.0
    return signs


def sorted_dual_norm(mags, lam) -> float:
    """``max_k (mags[0] + ... + mags[k]) / (lam[0] + ... + lam[k])``: the
    dual norm when ``mags`` are sorted magnitudes.  For any ``w`` in place
    of ``mags`` it is minus the largest ``y`` with ``Pi_C(y lam + w) = 0``,
    where every prefix sum of ``y lam + w`` is nonpositive."""
    return float(np.max(np.cumsum(mags) / np.cumsum(lam)))


def plateau_model_root(w, v, weights: Weights, tau: float) -> float:
    """Start point of the Newton solve for plateau weights
    ``lam = lam0 * 1[:k]``: ``min(r1, r2)``, the roots of two lower
    bounds on ``phi'(y) = <Pi_C(y lam + w), lam> - tau`` for ``y <= 0``
    that need no cone projection.  ``v = Pi_C(w)``, and
    ``phi'(0) = lam0 * sum(v[:k]) - tau`` must be positive.

    ``Pi_C`` is order-preserving, ``y lam >= y lam0`` for ``y <= 0``,
    and the projection of ``w`` shifted by a constant is ``v`` shifted
    and clamped, so ``phi' >= psi1(y) = lam0 * sum((v + y lam0)_+[:k])
    - tau``.  Its root is ``-s / lam0`` for the L1-ball threshold ``s``
    of ``v[:k]`` at radius ``z = tau / lam0`` (Duchi et al. 2008, Condat
    2016), ``s = max_t (cumsum(v)[t] - z) / (t + 1)`` over ``t < k``.  It
    is exact for the L1 norm.

    Every entry of the projection is nonnegative and its first is the
    largest prefix mean of ``y lam + w`` or zero, so ``phi' >= psi2(y) =
    lam0 * max_t mean((y lam + w)[:t+1]) - tau``, exact for the Linf
    norm.  Its root is ``min_t ((t + 1) z - cumsum(w)[t]) / cumsum(lam)[t]``
    with ``cumsum(lam)[t] = lam0 * min(t + 1, k)``: the max-ratio formula
    of :func:`sorted_dual_norm`, which it is at ``tau = 0`` (negated).

    So both roots are at least ``y*``, and ``r1 < 0`` since
    ``psi1(0) = phi'(0) > 0``: the start lies in ``[y*, 0)``.
    """
    lam0, k = float(weights.values[0]), weights.plateau
    z = tau / lam0
    count = np.arange(1, w.size + 1, dtype=np.float64)
    r1 = np.min((z - np.cumsum(v[:k])) / count[:k]) / lam0
    gaps = count * z
    gaps -= np.cumsum(w)
    gaps /= np.minimum(count, k, out=count)
    r2 = np.min(gaps) / lam0
    return float(min(r1, r2))
