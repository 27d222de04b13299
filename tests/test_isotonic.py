import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.optimize import isotonic_regression

from owlball import isotonic, ssn
from owlball.isotonic import (ConeProjection, positive_block_sums, project_cone, reduce_spans,
                              repair_ties)

from oracle import active_set, block_tuples, block_values, oracle_cone


def test_feasible_input_is_fixed_point():
    p = project_cone(np.array([5.0, 3.0, 1.0]))
    assert np.array_equal(p.x, [5.0, 3.0, 1.0])
    assert block_tuples(p) == [(0, 1, 5.0), (1, 2, 3.0), (2, 3, 1.0)]


def test_pooling_example():
    p = project_cone(np.array([1.0, 3.0, 2.0]))
    assert np.array_equal(p.x, [2.0, 2.0, 2.0])
    assert block_tuples(p) == [(0, 3, 2.0)]


def test_polar_cone_input_projects_to_zero():
    p = project_cone(np.array([-1.0, -2.0, 3.0]))
    assert np.array_equal(p.x, [0.0, 0.0, 0.0])
    assert p.num_blocks == 1
    assert block_values(p)[-1] == 0.0


def test_idempotence_is_exact():
    rng = np.random.default_rng(21)
    for _ in range(200):
        d = rng.standard_normal(rng.integers(1, 60))
        x = project_cone(d).x
        assert np.array_equal(project_cone(x).x, x)


def test_idempotence_with_ties_and_zeros():
    # Feasible vectors with repeated values and a zero tail must pass
    # through bit-for-bit; pooled runs of identical entries are restored
    # exactly instead of via a sum/k mean.
    x = np.array([0.1 + 0.2, 0.1 + 0.2, 0.3, 0.0, 0.0])
    x[2] = x[0]  # bitwise-identical run across a would-be block edge
    p = project_cone(x)
    assert np.array_equal(p.x, x)


@pytest.mark.parametrize("tail", [[], [0.0, 0.0]])
def test_identity_with_alternating_pooled_and_singleton_runs(tail):
    # Each run of 6 x 2.2, 6 x 1.1, 3 x 0.7 and 3 x 0.1 pools into one
    # block whose PAVA mean is off by an ulp, with singletons between
    # them.  Without the zero tail the last pooled run ends at n.
    x = np.array([2.2] * 6 + [1.5] + [1.1] * 6 + [0.9] + [0.7] * 3
                 + [0.5] + [0.1] * 3 + tail)
    p = project_cone(x)
    assert x.tobytes() == p.x.tobytes()
    pooled = [(s, e) for s, e, _ in block_tuples(p) if e - s > 1]
    assert pooled[:4] == [(0, 6), (7, 13), (14, 17), (18, 21)]


def test_pava_route_repairs_pooled_runs_in_x_and_values():
    # The runs above, then a violation that sends the vector through
    # PAVA: each repaired run reads back its entry bit for bit in x as
    # well as in block_values, and x is its blocks repeated.  The Newton
    # solve's write of x off a block step's blocks shares the repair: fed
    # PAVA's block means, whose pooled runs are off their entries, it
    # gives the same x, exactly nonincreasing.
    runs = np.array([2.2] * 6 + [1.5] + [1.1] * 6 + [0.9] + [0.7] * 3
                    + [0.5] + [0.1] * 3)
    assert any(np.mean(runs[s:s + 6]) != runs[s] for s in (0, 7))
    d = np.append(runs, [0.05, 0.06])
    p = project_cone(d)
    assert p.x[:runs.size].tobytes() == runs.tobytes()
    assert p.x[runs.size:].tolist() == [0.055, 0.055]
    assert p.x.tobytes() == np.repeat(block_values(p), p.block_lengths).tobytes()
    assert np.array_equal(p.block_lengths, np.diff(p.block_starts, append=d.size))

    res = isotonic_regression(d, increasing=False)
    starts, lengths = res.blocks[:-1], np.diff(res.blocks).astype(np.float64)
    assert np.any(res.x[starts] != d[starts])
    blocks = ssn.Blocks(starts=starts, values=res.x[starts], sums=lengths, lengths=lengths)
    written = ssn.write_cone(np.empty(d.size), blocks, 0.0, d, np.ones(d.size))
    for q in (p, written):
        assert q.x.tobytes() == p.x.tobytes()
        assert np.all(np.diff(q.x) <= 0.0)


def test_tie_repair_clips_between_neighbours_and_reports_ties():
    # A repaired block keeps x exactly nonincreasing: its entry is
    # clipped to its neighbours' values, and a neighbour repaired too
    # bounds it by its own entry.  The repair reports whether a repaired
    # block now ties with a neighbour.
    def repaired(x, d, bounds):
        x = np.array(x)
        tied = repair_ties(x, np.asarray(d).__getitem__, np.array(bounds))
        return x.tolist(), tied

    # Off by an ulp, the entry between its neighbours: no tie.
    up = float(np.nextafter(1.0, 2.0))
    assert repaired([2.0, up, up, 0.5], [2.0, 1.0, 1.0, 0.5], [0, 1, 3, 4]) == (
        [2.0, 1.0, 1.0, 0.5], False)
    # An entry above the block before is clipped to it, and ties.
    assert repaired([1.0, 0.9, 0.9], [1.0, 1.2, 1.2], [0, 1, 3]) == ([1.0] * 3, True)
    # A run split into two blocks: both get the run's entry.
    c = 0.7
    x = [np.nextafter(c, 1.0)] * 2 + [np.nextafter(c, 0.0)] * 2
    assert repaired(x, [c] * 4, [0, 2, 4]) == ([c] * 4, True)
    # A negative entry is +0.0, and ties with the zero after it.
    x, tied = repaired([1.0, 1e-17, 1e-17, 0.0], [1.0, -0.0, -0.0, -1.0], [0, 1, 3, 4])
    assert x == [1.0, 0.0, 0.0, 0.0] and tied and not np.signbit(x).any()


def _cone_inputs():
    """Nonincreasing vectors with a nonnegative last entry: ties, zero
    runs of mixed sign, n = 1, and lengths on both sides of the in-cone
    test's first stretches."""
    rng = np.random.default_rng(23)
    cases = [np.array([0.0]), np.array([-0.0]), np.array([2.5]),
             np.array([3.0, 3.0, 1.0, 0.0, -0.0, 0.0]),
             np.array([1.0, 0.0, -0.0]), np.array([1.0, -0.0, 0.0]),
             np.array([-0.0, 0.0, -0.0]), np.array([5e-324, 0.0])]
    for _ in range(300):
        n = int(rng.integers(1, 1100))
        d = np.sort(rng.choice([0.0, 0.5, 1.0, 1.5, 2.0], n) if rng.random() < 0.5
                    else np.abs(rng.standard_normal(n)))[::-1]
        zeros = np.flatnonzero(d == 0.0)
        d[zeros] = rng.choice([0.0, -0.0], zeros.size)
        cases.append(d)
    return cases


def test_cone_input_is_returned_with_its_runs_as_blocks():
    # Nonincreasing input with a nonnegative last entry skips PAVA.  The
    # result must still be the canonical one: a fresh x equal to d bit
    # for bit except that every zero is +0.0, one block per run of equal
    # entries, values strictly decreasing with zero only last.
    for d in _cone_inputs():
        p = project_cone(d)
        x = d.copy()
        x[x == 0.0] = 0.0
        runs = np.flatnonzero(np.append(True, d[1:] != d[:-1]))
        assert p.x.tobytes() == x.tobytes()
        assert not np.shares_memory(p.x, d) and d.flags.writeable
        assert np.array_equal(p.block_starts, runs)
        assert p.block_starts.dtype == np.intp
        assert block_values(p).tobytes() == x[runs].tobytes()
        assert np.all(block_values(p)[:-1] > block_values(p)[1:])
        assert np.all(block_values(p)[:-1] > 0.0)


def test_cone_exit_matches_the_pava_route(monkeypatch):
    # The same inputs sent through PAVA by disabling the in-cone test
    # give byte-identical x, block_starts and block_values.
    cases = _cone_inputs()
    fast = [project_cone(d) for d in cases]
    monkeypatch.setattr(isotonic, "_nonincreasing", lambda d: False)
    for d, p in zip(cases, fast):
        q = project_cone(d)
        assert p.x.tobytes() == q.x.tobytes()
        assert p.block_starts.tobytes() == q.block_starts.tobytes()
        assert block_values(p).tobytes() == block_values(q).tobytes()


@st.composite
def nonincreasing_vectors(draw):
    """Nonincreasing vectors, with a result length ``n >= len(d)``: ties,
    +0.0 and -0.0, negative tails, all-negative input and n = 1."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]),
                      st.floats(-1e6, 1e6))
    if draw(st.booleans()):
        entry = entry.map(lambda v: -abs(v))
    d = np.sort(np.array(draw(st.lists(entry, min_size=1, max_size=60))))[::-1].copy()
    return d, d.size + draw(st.sampled_from([0, 0, 1, 5]))


@settings(max_examples=400, deadline=None)
@given(nonincreasing_vectors())
def test_nonincreasing_exit_matches_the_pava_route(case):
    # Any nonincreasing d skips PAVA, zero-padded or not; sending it
    # through PAVA gives the same bytes.
    d, n = case
    fast = project_cone(d, n)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(isotonic, "_nonincreasing", lambda d: False)
        slow = project_cone(d, n)
    assert fast.x.tobytes() == slow.x.tobytes()
    assert fast.block_starts.tobytes() == slow.block_starts.tobytes()
    assert block_values(fast).tobytes() == block_values(slow).tobytes()
    assert fast.x.tobytes() == np.repeat(block_values(fast), fast.block_lengths).tobytes()


@st.composite
def violating_vectors(draw):
    """Vectors with an ascent, so that :func:`project_cone` takes the PAVA
    route, with a result length ``n >= len(d)``: ties, +0.0 and -0.0 and
    negative tails."""
    entry = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.5]),
                      st.floats(-1e6, 1e6))
    d = draw(st.lists(entry, min_size=1, max_size=60))
    tail = draw(st.integers(0, len(d)))
    d[tail:] = [-abs(v) for v in d[tail:]]
    i = draw(st.integers(1, len(d)))
    d.insert(i, d[i - 1] + draw(st.sampled_from([0.5, 1.0, 3.0])))
    return np.array(d), len(d) + draw(st.sampled_from([0, 1, 5]))


@st.composite
def zero_vectors(draw):
    """All-zero vectors of mixed sign, with a result length ``n >= len(d)``."""
    d = np.array(draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=1, max_size=60)))
    return d, d.size + draw(st.sampled_from([0, 1, 5]))


@settings(max_examples=600, deadline=None)
@given(st.one_of(violating_vectors().map(lambda case: (*case, False)),
                 nonincreasing_vectors().map(lambda case: (*case, True)),
                 zero_vectors().map(lambda case: (*case, True))))
@example((np.array([2.5]), 1, True))
@example((np.array([-2.5]), 1, True))
@example((np.array([-0.0]), 1, True))
def test_pava_route_reads_its_blocks_off_x(case):
    # On both routes, zero pad included, the blocks start at 0 and
    # wherever x differs from the entry before, and hold x's own bytes;
    # the zero block starts at the first zero of x, if there is one.
    d, n, exit_route = case
    assert isotonic._nonincreasing(d) == exit_route
    p = project_cone(d, n)
    x = p.x
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    assert p.block_starts.tolist() == [0, *change.tolist()]
    assert block_values(p).tobytes() == x[p.block_starts].tobytes()
    zeros = np.flatnonzero(x == 0.0)
    assert p.zero_start == (zeros[0] if zeros.size else n)
    assert p.zero_tail == (zeros.size > 0)


def test_zero_padded_result_is_the_projection_of_the_whole():
    # project_cone(d[:k], n) is the projection of d when that vanishes
    # from k on, as a full-length result with canonical blocks: the pad
    # starts its own zero block (k at the zero start) or joins that of
    # d[:k] (k beyond it).
    rng = np.random.default_rng(29)
    for _ in range(300):
        n = int(rng.integers(1, 80))
        d = rng.standard_normal(n) - rng.uniform(0.0, 2.0) * np.arange(n) / n
        full = project_cone(d)
        start = full.zero_start
        for k in {start, int(rng.integers(start, n + 1))} - {0}:
            p = project_cone(d[:k], n)
            assert p.x.tobytes() == full.x.tobytes()
            assert p.block_starts.tobytes() == full.block_starts.tobytes()
            assert block_values(p).tobytes() == block_values(full).tobytes()
            assert p.zero_start == start
    with pytest.raises(ValueError):
        project_cone(np.ones(3), 2)


def test_pava_route_clamps_to_positive_zero():
    # Pooled and single -0.0 entries and negative means all clamp to +0.0.
    for d in ([1.0, -0.0], [1.0, -0.0, -0.0, -1.0], [-0.0, 2.0], [-3.0, -0.0, 1.0]):
        p = project_cone(np.array(d))
        assert not np.signbit(p.x).any()
        assert not np.signbit(block_values(p)).any()


@pytest.mark.parametrize("n", [2, 257, 258, 769, 1100])
def test_in_cone_test_sees_a_violation_at_every_position(n):
    # The pairs are compared in stretches of doubling length; a single
    # violation anywhere, stretch edges included, must be found.
    d = np.linspace(3.0, 1.0, n)
    assert isotonic._nonincreasing(d)
    for i in range(n - 1):
        e = d.copy()
        e[i], e[i + 1] = e[i + 1], e[i]
        assert not isotonic._nonincreasing(e), i


def test_late_violation_is_not_taken_for_cone_input():
    # A violation far from the front must still send the input through
    # PAVA.
    d = np.linspace(3.0, 1.0, 1000)
    d[900], d[901] = d[901], d[900]
    p = project_cone(d)
    assert p.num_blocks == 999
    assert block_tuples(p)[900] == (900, 902, 0.5 * (d[900] + d[901]))


def test_reduce_spans_matches_slices():
    # Adjacent spans, a span ending at n and long gaps between spans.
    rng = np.random.default_rng(27)
    for _ in range(200):
        n = int(rng.integers(2, 60))
        cuts = np.unique(rng.integers(0, n + 1, rng.integers(2, 12)))
        if cuts.size < 2:
            continue
        starts, stops = cuts[:-1], cuts[1:]
        keep = rng.random(starts.size) < 0.6
        keep[-1] |= rng.random() < 0.5
        if not keep.any():
            continue
        starts, stops = starts[keep], stops[keep]
        v = rng.standard_normal(n)
        for ufunc in (np.minimum, np.maximum):
            expected = [ufunc.reduce(v[s:t]) for s, t in zip(starts, stops)]
            assert np.array_equal(reduce_spans(ufunc, v, starts, stops), expected)
        # reduce sums pairwise and reduceat left to right
        sums = [np.sum(v[s:t]) for s, t in zip(starts, stops)]
        assert reduce_spans(np.add, v, starts, stops) == pytest.approx(
            sums, rel=1e-13, abs=1e-13)


class TestPositiveBlocks:
    """``zero_tail`` and ``positive_block_sums``, which the Newton
    curvature and the ball Jacobian share."""

    # (input, zero_tail, blocks with a positive value as (start, stop)).
    CASES = {
        "tied": ([3.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.5], False,
                 [(0, 1), (1, 4), (4, 5), (5, 7)]),
        "pooled": ([1.0, 3.0, 2.0, 0.5], False, [(0, 3), (3, 4)]),
        "zero_tail": ([4.0, 1.0, 2.0, -1.0, -3.0], True, [(0, 1), (1, 3)]),
        "tied_zero_tail": ([2.0, 2.0, 0.0, 0.0], True, [(0, 2)]),
        "all_zero": ([-1.0, -2.0, 3.0], True, []),
        "n1": ([2.5], False, [(0, 1)]),
        "n1_zero": ([-2.5], True, []),
        "singletons": ([5.0, 3.0, 1.0], False, [(0, 1), (1, 2), (2, 3)]),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_cases(self, name):
        d, zero_tail, spans = self.CASES[name]
        p = project_cone(np.array(d))
        assert p.zero_tail is zero_tail
        assert p.zero_tail == (block_values(p)[-1] == 0.0)
        v = np.linspace(1.0, 2.0, p.n) ** 3
        sums, pooled = positive_block_sums(p, v)
        assert sums == pytest.approx([math.fsum(v[s:t]) for s, t in spans],
                                     rel=1e-15)
        assert pooled.tolist() == [k for k, (s, t) in enumerate(spans) if t - s > 1]

    def test_matches_block_slices(self):
        rng = np.random.default_rng(28)
        seen = dict(ties=0, zero_tail=0, all_zero=0, n1=0)
        for k in range(400):
            n = int(rng.integers(1, 30))
            d = rng.standard_normal(n) + (0.5, 0.0, -0.5)[k % 3]
            if k % 4 == 0:
                d = np.round(d, 1)
            p = project_cone(d)
            v = rng.standard_normal(n)
            sums, pooled = positive_block_sums(p, v)
            spans = [(s, t) for s, t, value in block_tuples(p) if value > 0.0]
            assert p.zero_tail == (len(spans) < p.num_blocks)
            assert sums == pytest.approx([math.fsum(v[s:t]) for s, t in spans],
                                         rel=1e-14, abs=1e-14)
            assert pooled.tolist() == [j for j, (s, t) in enumerate(spans)
                                       if t - s > 1]
            seen["ties"] += np.unique(d).size < n
            seen["zero_tail"] += p.zero_tail and bool(p.x.any())
            seen["all_zero"] += not p.x.any()
            seen["n1"] += n == 1
        assert min(seen.values()) >= 5, seen


def test_nonexpansiveness():
    rng = np.random.default_rng(22)
    for _ in range(1000):
        n = rng.integers(1, 30)
        d = rng.standard_normal(n)
        e = rng.standard_normal(n)
        lhs = np.linalg.norm(project_cone(d).x - project_cone(e).x)
        rhs = np.linalg.norm(d - e)
        assert lhs <= rhs * (1.0 + 1e-12)


@settings(max_examples=500, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5]),
                          st.floats(-4.0, 4.0)), min_size=1, max_size=10),
       st.sampled_from([0.01, 1.0, 100.0]))
@example([2.0, -1.4581759732859718e-10], 100.0)   # the oracle once kept the -1.5e-8
def test_matches_enumeration_oracle(d, scale):
    d = np.array(d) * scale
    gap = np.max(np.abs(project_cone(d).x - oracle_cone(d)))
    assert gap <= 1e-9


def test_block_consistency():
    rng = np.random.default_rng(24)
    for _ in range(300):
        d = rng.standard_normal(rng.integers(1, 50))
        p = project_cone(d)
        rebuilt = np.concatenate([np.full(e - s, v) for s, e, v in block_tuples(p)])
        assert np.array_equal(rebuilt, p.x)
        for s, e, v in block_tuples(p):
            assert v == pytest.approx(max(np.mean(d[s:e]), 0.0),
                                      rel=1e-13, abs=1e-13)
        # canonical: strictly decreasing block values, so the partition
        # (and hence the active set) is maximal
        vals = block_values(p)
        assert np.all(vals[:-1] > vals[1:])
        assert np.all(vals >= 0.0)


def test_kkt_orthogonality():
    # <x - d, x> = 0 at the projection onto any closed convex cone.
    rng = np.random.default_rng(25)
    for _ in range(200):
        d = rng.standard_normal(rng.integers(1, 40))
        x = project_cone(d).x
        scale = 1.0 + float(np.dot(d, d))
        assert abs(np.dot(x - d, x)) / scale <= 1e-13


def test_rejects_bad_input():
    with pytest.raises(ValueError):
        project_cone(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        project_cone(np.array([]))


@pytest.mark.parametrize("d", [
    [np.nan, 1.0, 3.0],            # gave x = [nan, 2, 2]
    [1.0, -np.inf],                # gave x = [1, 0]
    [np.inf],
    [3.0, 2.0, np.nan],            # nonincreasing elsewhere
    [1e200, -1e200, np.inf],       # <d, d> overflows before the infinity
])
def test_rejects_nonfinite_input(d):
    with pytest.raises(ValueError, match="finite"):
        project_cone(d)
    with pytest.raises(ValueError, match="finite"):
        project_cone(d, len(d) + 2)


def test_accepts_entries_whose_squares_overflow():
    # <d, d> is inf here, yet every entry is finite.
    d = np.array([1e300, 3e300, -1e300])
    p = project_cone(d)
    assert np.array_equal(p.x, [2e300, 2e300, 0.0])


class TestActiveSet:
    def test_no_active_constraints(self):
        p = project_cone(np.array([5.0, 3.0, 1.0]))
        assert active_set(p).size == 0

    def test_pooled_block(self):
        # x = (2,2,2): both difference constraints tight, x3 > 0 slack.
        p = project_cone(np.array([1.0, 3.0, 2.0]))
        assert np.array_equal(active_set(p), [0, 1])

    def test_zero_vector_all_active(self):
        p = project_cone(np.array([-1.0, -2.0, 3.0]))
        assert np.array_equal(active_set(p), [0, 1, 2])

    def test_zero_tail_only(self):
        p = project_cone(np.array([3.0, -1.0]))
        assert np.array_equal(p.x, [3.0, 0.0])
        assert np.array_equal(active_set(p), [1])

    def test_matches_block_structure_on_random_input(self):
        rng = np.random.default_rng(26)
        for _ in range(200):
            d = rng.standard_normal(rng.integers(1, 40))
            p = project_cone(d)
            gamma = set(active_set(p).tolist())
            n = p.n
            # independent reconstruction from x itself; safe because the
            # block values are exact constants
            expected = {i for i in range(n - 1) if p.x[i] == p.x[i + 1]}
            if p.x[n - 1] == 0.0:
                expected.add(n - 1)
            assert gamma == expected


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 80), st.sampled_from([0, 1, None]))
def test_weighted_projection_is_that_of_the_repeated_entries(seed, k, decimals):
    # With whole weights L, the projection weighted by L is, up to
    # roundoff, the projection of each entry repeated L times, read at
    # each entry's first copy.  Its blocks are x's runs on every route.
    rng = np.random.default_rng(seed)
    d = rng.standard_normal(k) - rng.uniform(0.0, 2.0) * np.arange(k) / k
    if decimals is not None:
        d = np.round(d, decimals)
    lengths = rng.integers(1, 6, k).astype(np.float64)
    p = project_cone(d, weights=lengths)
    x = p.x
    change = np.flatnonzero(x[1:] != x[:-1]) + 1
    assert p.block_starts.tolist() == [0, *change.tolist()]
    assert not np.signbit(x).any()
    expanded = project_cone(np.repeat(d, lengths.astype(np.intp))).x
    first = np.cumsum(lengths).astype(np.intp) - lengths.astype(np.intp)
    assert np.allclose(x, expanded[first], rtol=1e-13, atol=1e-13)
    with pytest.raises(ValueError):
        project_cone(d, weights=lengths[:-1] if k > 1 else np.ones(2))
