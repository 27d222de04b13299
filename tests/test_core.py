import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from owlball import Instance, Weights, dual_norm, owl_norm
from owlball.core import SignedSort, dot, signed_sort

from oracle import apply_signed_sort


class TestWeights:
    def test_valid_construction(self):
        w = Weights([3.0, 2.0, 2.0, 0.0])
        assert w.n == 4
        assert np.array_equal(w.values, [3.0, 2.0, 2.0, 0.0])
        assert not w.values.flags.writeable

    def test_copies_input(self):
        raw = np.array([2.0, 1.0])
        w = Weights(raw)
        raw[0] = 99.0
        assert w.values[0] == 2.0

    def test_repr_is_short_at_any_length(self):
        # Not every weight: at n = 1e6 that was a 20 MB string, 0.7 s to build.
        w = Weights(np.ones(1_000_000))
        assert repr(w) == "Weights(n=1000000, plateau=1000000)"
        assert len(repr(w)) < 100
        assert repr(Weights([3.0, 2.0, 0.0])) == "Weights(n=3, plateau=None)"

    @pytest.mark.parametrize("bad", [
        [1.0, 2.0],          # increasing
        [1.0, -0.5],         # negative
        [0.0, 0.0],          # no positive entry
        [],                  # empty
        [1.0, np.nan],       # non-finite
        [[1.0], [0.5]],      # not 1-d
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            Weights(bad)


class TestInstance:
    def test_valid_construction(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        assert inst.n == 2
        assert inst.tau == 2.0

    def test_accepts_raw_weight_arrays(self):
        inst = Instance([1.0, 0.0], [1.0, 1.0], 2.0)
        assert isinstance(inst.weights, Weights)

    @pytest.mark.parametrize("tau", [0.0, -1.0, np.nan, np.inf])
    def test_rejects_bad_tau(self, tau):
        with pytest.raises(ValueError):
            Instance([3.0, 1.0], Weights([1.0, 1.0]), tau)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Instance([3.0, 1.0, 0.0], Weights([1.0, 1.0]), 2.0)

    def test_rejects_nonfinite_b(self):
        with pytest.raises(ValueError):
            Instance([np.inf, 1.0], Weights([1.0, 1.0]), 2.0)


@st.composite
def tie_heavy_vectors(draw):
    """Vectors whose magnitudes repeat: all equal, 1-6 distinct values
    (0 among them, so +0.0 and -0.0 mix), or rounded to 2 decimals.
    Positions and signs come from a drawn seed, so n can reach
    thousands without drawing every entry."""
    n = draw(st.integers(1, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    magnitude = st.one_of(st.just(0.0), st.floats(0.0, 1e6))
    kind = draw(st.sampled_from(["equal", "few", "rounded"]))
    if kind == "equal":
        mags = np.full(n, draw(magnitude))
    elif kind == "few":
        pool = draw(st.lists(magnitude, min_size=1, max_size=6))
        mags = rng.choice(pool, n)
    else:
        mags = np.round(rng.uniform(0.0, 3.0, n), 2)
    return np.where(rng.random(n) < 0.5, -mags, mags)


@st.composite
def colliding_vectors(draw):
    """Vectors whose magnitudes differ only in their low bits, so the
    packed sort keys collide once the position replaces those bits:
    ``1 + j*ulp``, subnormals ``j * 5e-324`` and zeros, alone or mixed,
    with ``j`` below n (a permutation, or drawn with exact ties) and
    random signs, so +0.0 and -0.0 mix.  n is 1, 2, or a power of two
    or one past it, where the position field widens."""
    k = draw(st.integers(1, 12))
    n = draw(st.sampled_from([1, 2, 2**k, 2**k + 1]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    j = rng.permutation(n) if draw(st.booleans()) else rng.integers(0, n, n)
    ulp = 1.0 + j * np.finfo(np.float64).eps
    subnormal = j * 5e-324
    kind = draw(st.sampled_from(["ulp", "subnormal", "mixed"]))
    if kind == "ulp":
        mags = ulp
    elif kind == "subnormal":
        mags = subnormal
    else:
        mags = np.choose(rng.integers(0, 3, n), [ulp, subnormal, np.zeros(n)])
    return np.where(rng.random(n) < 0.5, -mags, mags)


def colliding_runs(rng):
    """Inputs whose magnitudes collide in runs of shared high bits."""
    ulp = np.finfo(np.float64).eps
    for _ in range(40):
        sizes = rng.integers(1, 700, int(rng.integers(1, 12)))
        n = int(sizes.sum())
        field = 2 ** (n - 1).bit_length()
        bases = 1.0 + field * ulp * rng.choice(1000, sizes.size, replace=False)
        mags = np.repeat(bases, sizes) + rng.integers(0, field, n) * ulp
        yield rng.permutation(np.where(rng.random(n) < 0.5, -mags, mags))
    top = np.finfo(np.float64).max.view(np.uint64)
    for _ in range(20):
        # Within 2**12 ulps below the largest double.
        n = int(rng.integers(2, 2000))
        mags = (top - rng.integers(0, 2**12, n).astype(np.uint64)).view(np.float64)
        yield np.where(rng.random(n) < 0.5, -mags, mags)
    for _ in range(20):
        # Subnormals, about a third of them zeros of either sign.
        n = int(rng.integers(2, 2000))
        mags = rng.integers(0, 2 ** int(rng.integers(1, 14)), n) * 5e-324
        mags[rng.random(n) < 0.3] = 0.0
        yield np.where(rng.random(n) < 0.5, -mags, mags)
    for j in range(1, 13):
        for n in (2**j - 1, 2**j, 2**j + 1):
            ones = 1.0 + rng.integers(0, 2 * n, n) * ulp
            subnormal = rng.integers(0, 2 * n, n) * 5e-324
            for mags in (ones, subnormal):
                yield np.where(rng.random(n) < 0.5, -mags, mags)


class TestSignedSort:
    def test_basic_example(self):
        sort, w = signed_sort(np.array([-3.0, 1.0, 2.0]))
        assert np.array_equal(w, [3.0, 2.0, 1.0])
        assert np.array_equal(sort.apply_inverse(w), [-3.0, 1.0, 2.0])

    def test_sorted_input_is_fixed_point(self):
        sort, w = signed_sort(np.array([5.0, 2.0, 0.0]))
        assert np.array_equal(w, [5.0, 2.0, 0.0])
        assert np.array_equal(sort.perm, [0, 1, 2])

    def test_stable_tie_break(self):
        b = np.array([2.0, -2.0])
        sort, w = signed_sort(b)
        assert np.array_equal(w, [2.0, 2.0])
        assert np.array_equal(sort.perm, [0, 1])
        # The signs are read off b, which the sort holds uncopied.
        assert sort.b is b
        assert np.array_equal(np.signbit(sort.b[sort.perm]), [False, True])

    @staticmethod
    def in_order_cases():
        """Vectors whose ``|b|`` is nonincreasing, so that the sort is
        ``arange(n)``: ties, mixed signs, +0.0 and -0.0 runs, n = 1 and
        lengths past the first few hundred entries."""
        rng = np.random.default_rng(73)
        cases = [np.array([-0.0]), np.array([0.0, -0.0, 0.0]), np.array([-2.5]),
                 np.array([3.0, -3.0, 2.0, 2.0, -1.0, 0.0, -0.0, 0.0])]
        for n in (2, 257, 1000, 4099):
            mags = np.sort(rng.choice([0.0, 0.5, 1.0, 1.5], n))[::-1]
            cases.append(np.where(rng.random(n) < 0.5, -mags, mags))
        return cases

    def test_in_order_input_matches_stable_argsort(self):
        # Presorted input and its reversal go through the one packed sort;
        # perm and w are bitwise those of the stable argsort, and the
        # sort holds the input itself.
        for b in self.in_order_cases():
            for case, in_order in ((b, True), (b[::-1].copy(), False)):
                sort, w = signed_sort(case)
                perm = np.argsort(-np.abs(case), kind="stable")
                if in_order:
                    assert np.array_equal(sort.perm, np.arange(case.size))
                assert sort.perm.dtype == perm.dtype and not sort.perm.flags.writeable
                assert sort.perm.tobytes() == perm.tobytes()
                assert sort.b is case
                assert w.tobytes() == np.abs(case[perm]).tobytes()

    @pytest.mark.parametrize("n", [3, 257, 1000])
    @pytest.mark.parametrize("direction", [1, -1])
    def test_one_violation_at_the_end_is_sorted(self, n, direction):
        # |b| nonincreasing but for its last pair, or strictly increasing.
        b = -np.linspace(3.0, 1.0, n)[::direction].copy()
        if direction > 0:
            b[-2], b[-1] = b[-1], b[-2]
        sort, w = signed_sort(b)
        assert np.array_equal(sort.perm, np.argsort(-np.abs(b), kind="stable"))
        assert np.all(w[1:] <= w[:-1])

    @settings(max_examples=600, deadline=None)
    @given(st.data())
    @example(None)
    def test_matches_stable_argsort_on_tie_heavy_input(self, data):
        b = (np.array([-0.0]) if data is None
             else data.draw(st.one_of(tie_heavy_vectors(), colliding_vectors())))
        sort, w = signed_sort(b)
        perm = np.argsort(-np.abs(b), kind="stable")
        assert np.array_equal(sort.perm, perm)
        assert w.tobytes() == apply_signed_sort(sort, b).tobytes()
        assert sort.apply_inverse(w).tobytes() == b.tobytes()

    def test_collision_fix_up_beyond_the_packed_key_budget(self):
        # 2**20 + 1 triples (v, v + ulp, v), 2**22 ulps apart: every
        # triple collides in its own run, holds an inversion and an exact
        # tie.  Run rank (21 bits), low magnitude bits (22) and member
        # index (22) would need 65 bits, more than one packed key holds,
        # so the fix-up's stable argsort of the members is what orders
        # them.
        n = 3 * (2**20 + 1)
        base = 1.0 + np.arange(n // 3) * (2.0**22 * np.finfo(np.float64).eps)
        b = np.repeat(base, 3)
        b[1::3] = np.nextafter(b[1::3], 2.0)
        b[::4] *= -1.0
        sort, w = signed_sort(b)
        perm = np.argsort(-np.abs(b), kind="stable")
        assert np.array_equal(sort.perm, perm)
        assert w.tobytes() == np.abs(b[perm]).tobytes()
        assert sort.apply_inverse(w).tobytes() == b.tobytes()

    def test_colliding_runs_of_every_length(self):
        # Runs of 1 to 700 magnitudes that share their high bits, one run
        # per base value, shuffled: the fix-up must find each run's
        # bounds (first and last entry included) from its inversions.
        # Then the ends of the float range: runs just below the largest
        # double, whose upper end reads as +inf, and subnormal runs mixed
        # with 0.0 and -0.0, whose lower end is 0.0; and n around powers
        # of two, where the number k of position bits steps.
        for b in colliding_runs(np.random.default_rng(71)):
            sort, w = signed_sort(b)
            perm = np.argsort(-np.abs(b), kind="stable")
            assert np.array_equal(sort.perm, perm)
            # w holds +0.0 where b holds -0.0, and maps back to b bitwise.
            assert w.tobytes() == np.abs(b[perm]).tobytes()
            assert sort.apply_inverse(w).tobytes() == b.tobytes()

    def test_zero_entries_get_positive_sign(self):
        sort, w = signed_sort(np.array([0.0, -1.0]))
        assert w.tobytes() == np.array([1.0, 0.0]).tobytes()
        assert not np.signbit(sort.b[sort.perm[1]])
        assert sort.apply_inverse(w).tobytes() == np.array([0.0, -1.0]).tobytes()

    @pytest.mark.parametrize("b", [
        [-0.0], [0.0], [5e-324], [-5e-324], [-7.5],
        [0.0, -0.0, 0.0, -0.0],
        [5e-324, -5e-324, -0.0, 0.0, 1e-310, -1e-310, 2.2e-308],
        [2.0, -2.0, 2.0, -2.0, 0.0, -0.0, 1.0],
        [-1e-320, 3.0, -3.0, -0.0, 1e-320, 3.0],
    ], ids=str)
    def test_apply_inverse_of_sorted_magnitudes_is_b_bitwise(self, b):
        # Zeros of both signs, subnormals, ties and n = 1: the inverse
        # sort scatters the magnitudes and copies each sign bit off b.
        b = np.array(b)
        sort, w = signed_sort(b)
        assert w.tobytes() == np.abs(b[sort.perm]).tobytes()
        assert sort.apply_inverse(w).tobytes() == b.tobytes()

    @pytest.mark.parametrize("b", [[2.0, -1.0, 3.0], [2.0, -2.0, 0.0, 2.0]])
    def test_result_arrays_match_constructor_guarantees(self, b):
        # signed_sort builds its SignedSort from the fresh permutation
        # and the input itself: nothing n-sized is copied, and perm is
        # read-only, as a constructed sort on the same arrays holds them.
        b = np.array(b)
        sort, w = signed_sort(b)
        built = SignedSort(sort.perm, b)
        assert sort.perm.dtype == built.perm.dtype == np.intp
        assert not sort.perm.flags.writeable
        assert built.perm is sort.perm
        assert sort.b is b and built.b is b
        assert w.flags.writeable

    def test_round_trip_is_bitwise_identity(self):
        # P is a signed permutation, so P.T P b and P P.T u, for u >= 0,
        # move values without arithmetic: equality must be exact.
        rng = np.random.default_rng(7)
        for _ in range(100):
            v = rng.standard_normal(rng.integers(1, 40))
            sort, _ = signed_sort(v)
            assert sort.apply_inverse(apply_signed_sort(sort, v)).tobytes() == v.tobytes()
            u = np.abs(rng.standard_normal(v.size))
            assert apply_signed_sort(sort, sort.apply_inverse(u)).tobytes() == u.tobytes()

    def test_matrix_is_orthogonal(self):
        rng = np.random.default_rng(8)
        b = rng.standard_normal(6)
        b[2] = -0.0
        sort, w = signed_sort(b)
        P = np.zeros((6, 6))
        for k in range(6):
            P[k, sort.perm[k]] = -1.0 if np.signbit(b[sort.perm[k]]) else 1.0
        assert np.array_equal(P.T @ P, np.eye(6))
        assert np.array_equal(P @ b, w)
        assert np.array_equal(P.T @ w, sort.apply_inverse(w))

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ValueError):
            SignedSort([0, 1], [1.0, 0.5, 2.0])
        with pytest.raises(ValueError):
            SignedSort([[0, 1]], [[1.0, 0.5]])

    def test_apply_inverse_rejects_wrong_length(self):
        sort, _ = signed_sort(np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            sort.apply_inverse([1.0, 2.0, 3.0])


class TestOwlNorm:
    def test_hand_example(self):
        assert owl_norm([-3.0, 5.0], Weights([2.0, 1.0])) == 13.0

    def test_zero_vector(self):
        assert owl_norm(np.zeros(5), Weights(np.ones(5))) == 0.0

    def test_l1_specialization(self):
        rng = np.random.default_rng(11)
        w = Weights(np.ones(9))
        for _ in range(100):
            x = rng.standard_normal(9)
            assert owl_norm(x, w) == pytest.approx(np.sum(np.abs(x)), rel=1e-14)

    def test_dimension_mismatch(self):
        # The norm and its dual share one check of the vector.
        for norm in (owl_norm, dual_norm):
            with pytest.raises(ValueError):
                norm([1.0, 2.0, 3.0], Weights([1.0, 1.0]))
            # An x that is not one-dimensional is rejected by its shape,
            # even with as many entries as weights.
            for shape in [(1, 3), (3, 1)]:
                with pytest.raises(ValueError, match=re.escape(f"got shape {shape}")):
                    norm(np.ones(shape), Weights([1.0, 1.0, 1.0]))

    def test_a_nan_is_read_not_rejected(self):
        # A checker may take the norm of an answer before it tests the
        # answer for finiteness, so neither norm raises on a NaN.
        for norm in (owl_norm, dual_norm):
            assert np.isnan(norm([np.nan, 1.0], Weights([1.0, 0.5])))

    @pytest.mark.parametrize("lam", [[1.0, 2.0], [-1.0, 0.0], [0.0, 0.0]])
    def test_rejects_raw_weights_that_define_no_norm(self, lam):
        # Increasing weights would give 4.0 and negative ones -2.0 here;
        # raw values are validated as Weights, as dual_norm does.
        with pytest.raises(ValueError, match="weights"):
            owl_norm([1.0, 2.0], lam)

    def test_invariant_under_signed_sort(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            n = rng.integers(1, 20)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            if lam[0] == 0.0:
                continue
            w = Weights(lam)
            b = rng.standard_normal(n)
            sort, sorted_b = signed_sort(b)
            assert owl_norm(b, w) == pytest.approx(owl_norm(sorted_b, w), rel=1e-14)

    def test_absolute_homogeneity(self):
        rng = np.random.default_rng(13)
        w = Weights(np.sort(rng.random(8))[::-1] + 0.1)
        for _ in range(100):
            x = rng.standard_normal(8)
            c = rng.standard_normal()
            assert owl_norm(c * x, w) == pytest.approx(
                abs(c) * owl_norm(x, w), rel=1e-15, abs=1e-300)

    def test_triangle_inequality(self):
        rng = np.random.default_rng(14)
        w = Weights(np.sort(rng.random(10))[::-1] + 0.05)
        for _ in range(1000):
            x = rng.standard_normal(10)
            y = rng.standard_normal(10)
            lhs = owl_norm(x + y, w)
            rhs = owl_norm(x, w) + owl_norm(y, w)
            assert lhs <= rhs * (1.0 + 1e-14)


class TestDot:
    @pytest.mark.parametrize("n", [1, 10_000, 10_001, 50_000])
    def test_bits_depend_on_the_values_alone(self, n):
        # A strided view gives the bits of its contiguous copy, on either
        # side of the length from which einsum takes over from np.dot;
        # up to that length the result is np.dot's own.
        rng = np.random.default_rng(n)
        a, b = rng.standard_normal((2, 2 * n))
        got = dot(a[::-2], b[::-2])
        assert np.float64(got).tobytes() == np.float64(
            dot(a[::-2].copy(), b[::-2].copy())).tobytes()
        if n <= 10_000:
            assert np.float64(got).tobytes() == np.float64(np.dot(a[::-2], b[::-2])).tobytes()
        terms = a[::-2] * b[::-2]
        assert abs(got - math.fsum(terms)) <= n * np.finfo(float).eps * np.abs(terms).sum()

    def test_overflow_gives_inf(self):
        big = np.full(20_000, 1e300)
        assert dot(big, big) == np.inf
