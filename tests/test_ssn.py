import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import owlball.ssn as ssn_mod
from owlball import Instance, SsnParams, Weights, project_ball, solve_root
from owlball.bench import cell_rng, generate_instance
from owlball.core import dot, sorted_dual_norm
from owlball.isotonic import ConeProjection, positive_block_sums, project_cone
from owlball.ssn import dual_gradient, gradient_error, solve

from oracle import (
    apply_cone_jacobian,
    ball_certificate,
    block_curvature,
    block_values,
    dual_value,
    oracle_ball,
)

EPS = float(np.finfo(np.float64).eps)


def random_sorted_instance(rng, n, sigma=1.0, beta=None):
    """Sorted magnitudes, weights, and a strictly infeasible radius."""
    w = np.sort(np.abs(sigma * rng.standard_normal(n)))[::-1]
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    weights = Weights(lam)
    if beta is None:
        beta = float(rng.uniform(0.05, 0.95))
    tau = beta * float(np.dot(w, lam))
    return w, weights, tau


class TestParams:
    def test_defaults(self):
        p = SsnParams()
        assert p.eps == 1e-12
        assert p.y0 == 0.0

    @pytest.mark.parametrize("kwargs", [
        {"eps": np.nan}, {"eps": -np.inf},
        {"y0": np.inf}, {"y0": -np.inf},
        {"eps": 0.0}, {"eps": -1e-12},
        {"y0": np.nan},
        {"eps": np.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            SsnParams(**kwargs)


class TestDualValue:
    def test_zero_at_origin_for_feasible_w(self):
        w = np.array([5.0, 2.0, 0.0])
        assert dual_value(0.0, w, Weights([1.0, 1.0, 1.0]), 3.0) == 0.0

    def test_hand_example(self):
        w = np.array([3.0, 1.0])
        lam = Weights([1.0, 1.0])
        assert dual_value(-1.0, w, lam, 2.0) == pytest.approx(-1.0, abs=1e-15)

    def test_coercive_in_both_directions(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 30)))
            assert dual_value(1e6, w, weights, tau) > 0.0
            assert dual_value(-1e6, w, weights, tau) > 0.0


@st.composite
def truncation_cases(draw):
    """``(w, weights, hi, y)`` with ``y < hi``: ``w`` sorted magnitudes,
    rounded (ties) or with trailing zeros, and weights sorted |N(0,1)|,
    constant or with trailing zeros.  ``hi`` lies between the end of the
    flat piece and 0; ``y`` is the float below it or further down."""
    n = draw(st.integers(1, 200))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    if draw(st.booleans()):
        w = np.round(w, draw(st.integers(0, 2)))
    if draw(st.booleans()):
        w[draw(st.integers(0, n - 1)):] = 0.0
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    family = draw(st.sampled_from(["sorted", "constant", "trailing zeros"]))
    if family == "constant":
        lam = np.full(n, draw(st.sampled_from([1.0, 0.3])))
    elif family == "trailing zeros":
        lam[draw(st.integers(1, n)):] = 0.0
    end = sorted_dual_norm(w, lam)
    hi = -end * draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        y = float(np.nextafter(hi, -np.inf))
    else:
        y = hi - (end + 1.0) * draw(st.floats(0.0, 1.0, exclude_min=True))
    return w, Weights(lam), hi, y


@st.composite
def block_step_cases(draw):
    """``(w, weights, hi, y)`` with ``y < hi``, as :func:`truncation_cases`
    draws them, for n up to 300: ``w`` plain, rounded (ties) or all tied,
    with a +0.0 or -0.0 tail, and weights sorted |N(0,1)|, with a zero
    tail, plateau (``lam0 * 1[:k]``) or OSCAR (``linspace(2, 1, n)``)."""
    n = draw(st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    shape = draw(st.sampled_from(["plain", "rounded", "all tied"]))
    if shape == "rounded":
        w = np.round(w, draw(st.integers(0, 2)))
    elif shape == "all tied":
        w[:] = w[0]
    if draw(st.booleans()):
        w[draw(st.integers(1, n)):] = draw(st.sampled_from([0.0, -0.0]))
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    family = draw(st.sampled_from(["sorted", "zero tail", "plateau", "oscar"]))
    if family == "zero tail":
        lam[draw(st.integers(1, n)):] = 0.0
    elif family == "plateau":
        lam = np.where(np.arange(n) < draw(st.integers(1, n)), 0.5, 0.0)
    elif family == "oscar":
        lam = np.linspace(2.0, 1.0, n)
    end = sorted_dual_norm(w, lam)
    hi = -end * draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        y = float(np.nextafter(hi, -np.inf))
    else:
        y = hi - (end + 1.0) * draw(st.floats(0.0, 1.0, exclude_min=True))
    return w, Weights(lam), hi, y


def rounded_means(d, p):
    """``p``'s projection of ``d`` with each positive block's value the
    correctly rounded mean of ``d`` over it (``math.fsum``).  scipy's
    PAVA pools a long block by running means, which can be off by tens of
    ulps; the block step starts from such values at hi, so both are
    measured against these."""
    x = np.zeros(d.size)
    for start, length in zip(p.block_starts, p.block_lengths):
        if p.x[start] > 0.0:
            x[start:start + length] = max(math.fsum(d[start:start + length]) / length, 0.0)
    return x


class TestBlockStep:
    @settings(max_examples=400, deadline=None)
    @given(block_step_cases())
    def test_block_step_matches_the_coordinate_projection(self, case):
        # Below hi the solve projects hi's positive blocks, one entry
        # each weighted by its length, and writes x off the result.  This
        # measures a block step's own error: its x and phi' against the
        # projection of the coordinates with correctly rounded block
        # means, within 4 eps max(w[0], |y| lam[0]) and 2 n eps (<x, lam>
        # + tau) on top of the error the values at hi already carry.
        # Against dual_gradient's own values, whose PAVA means of a long
        # block are up to tens of ulps off, those bounds do not hold for a
        # single step (ROADMAP item 8); whole solves are bounded against
        # dual_gradient below.  x keeps project_cone's guarantees.
        w, weights, hi, y = case
        lam, tau = weights.values, 0.7
        p_hi = project_cone(hi * lam + w)
        at_hi = ssn_mod.coordinate_blocks(p_hi, lam)
        assume(at_hi.values.size > 0)
        blocks = ssn_mod.block_step(at_hi, hi, y)
        cone = ssn_mod.write_cone(np.empty(w.size), blocks, y, w, lam)
        _, full = dual_gradient(y, w, weights, tau)
        x, exact = cone.x, rounded_means(y * lam + w, full)
        inherited = np.max(np.abs(p_hi.x - rounded_means(hi * lam + w, p_hi)))
        bound = 4.0 * EPS * max(w[0], abs(y) * lam[0]) + inherited
        assert np.all(np.abs(x - exact) <= bound)
        grad = dot(blocks.values, blocks.sums) - tau
        exact_grad = math.fsum(exact * lam) - tau
        assert abs(grad - exact_grad) <= (2 * w.size * EPS * (np.dot(full.x, lam) + tau)
                                          + inherited * lam.sum())
        assert np.all(np.diff(x) <= 0.0) and not np.signbit(x).any()
        # A pooled run of bitwise-identical entries of y lam + w is that entry.
        d = y * lam + w
        for start, length in zip(cone.block_starts, cone.block_lengths):
            run = d[start:start + length]
            if length > 1 and np.all(run == run[0]):
                assert np.all(x[start:start + length] == max(run[0], 0.0))

    def test_solves_with_block_steps_match_dual_gradient_at_y_star(self, monkeypatch):
        # Whole solves with OSCAR (linspace(2, 1, n)) and SLOPE
        # (sqrt(2 log(n / i)) + 1e-3) weights, which take several block
        # steps: the answer is dual_gradient's projection at y_star within
        # 4 eps max(w[0], |y*| lam[0]) elementwise, whichever step wrote
        # it, and dual_gradient reads phi'(y_star) within eps tau plus its
        # roundoff, 2 n eps (<x, lam> + tau).
        calls = TestSolveBasics.count_projections(monkeypatch)
        rng = np.random.default_rng(61)
        chained = 0
        for k in range(300):
            n = int(rng.integers(2, 301))
            w = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            if k % 3 == 1:
                w = np.round(w, int(rng.integers(0, 3)))
            if k % 5 == 0:
                w[int(rng.integers(1, n + 1)):] = 0.0
            if k % 2:
                lam = np.linspace(2.0, 1.0, n)
            else:
                lam = np.sqrt(2.0 * np.log(n / np.arange(1.0, n + 1.0))) + 1e-3
            weights = Weights(lam)
            tau = float(rng.uniform(0.01, 0.95)) * float(np.dot(w, lam))
            calls.clear()
            report = solve(w, weights, tau)
            assert report.converged
            grad, p = dual_gradient(report.y_star, w, weights, tau)
            x = report.x_star
            bound = 4.0 * EPS * max(w[0], abs(report.y_star) * lam[0])
            assert np.all(np.abs(x - p.x) <= bound)
            assert abs(grad) <= 1e-12 * tau + 2 * n * EPS * (np.dot(p.x, lam) + tau)
            assert np.all(np.diff(x) <= 0.0) and not np.signbit(x).any()
            chained += sum(weighted for *_, weighted in calls) >= 2
        assert chained >= 100


class TestBlockRecord:
    """The final cone projection is the one block record: its block
    starts are those of its own x, and where a block step reached the
    final point, it carries each positive block's sum of lam."""

    @staticmethod
    def assert_record(cone, lam):
        assert np.array_equal(cone.block_starts, ConeProjection(cone.x.copy()).block_starts)
        if cone.lam_sums is not None:
            # Sums of sums after block steps, direct sums here: each is
            # off the exact sum of its L nonnegative terms by (L - 1) eps.
            exact, _ = positive_block_sums(cone, lam)
            lengths = cone.block_lengths[:exact.size]
            assert np.all(np.abs(cone.lam_sums - exact) <= 2 * lengths * EPS * exact)

    def test_solves_end_on_a_record_of_their_blocks(self, monkeypatch):
        # Sorted |N|, OSCAR and SLOPE weights end on a block step, L1
        # weights on a coordinate step (no block at hi pools).  A
        # block-written cone takes its starts and sums from the blocks; a
        # coordinate projection takes the starts of its PAVA pass, or
        # reads them off x, and carries no sums.
        writes = []
        inner = ssn_mod.write_cone

        def counted(*args):
            writes.append(inner(*args))
            return writes[-1]

        monkeypatch.setattr(ssn_mod, "write_cone", counted)
        rng = np.random.default_rng(73)
        ends = {"block": 0, "coordinate": 0}
        for k in range(240):
            n = int(rng.integers(2, 301))
            w = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            if k % 3 == 1:
                w = np.round(w, int(rng.integers(0, 3)))
            if k % 5 == 0:
                w[int(rng.integers(1, n + 1)):] = 0.0
            lam = [np.sort(np.abs(rng.standard_normal(n)))[::-1] + 0.01,
                   np.linspace(2.0, 1.0, n),
                   np.sqrt(2.0 * np.log(n / np.arange(1.0, n + 1.0))) + 1e-3,
                   np.ones(n)][k % 4]
            tau = float(rng.uniform(0.01, 0.95)) * float(np.dot(w, lam))
            writes.clear()
            report = solve(w, Weights(lam), tau)
            assert report.converged
            self.assert_record(report.cone, lam)
            if writes:
                assert writes == [report.cone] and report.cone.lam_sums is not None
                ends["block"] += 1
            else:
                assert report.cone.lam_sums is None
                ends["coordinate"] += 1
        assert ends["block"] >= 150 and ends["coordinate"] >= 40

    def test_write_whose_tie_repair_merges_neighbours(self):
        # PAVA may split a run of one value into blocks whose means differ
        # by roundoff.  The repair gives both the run's entry, so they are
        # one run of x: the projection reads its starts off x and carries
        # no sums.
        c = 0.7
        w = np.array([1.0, c, c, c, c, 0.2])
        lam = np.ones(w.size)
        lengths = np.array([1.0, 2.0, 2.0, 1.0])
        blocks = ssn_mod.Blocks(starts=np.array([0, 1, 3, 5]),
                                values=np.array([1.0, np.nextafter(c, 1.0),
                                                 np.nextafter(c, 0.0), 0.2]),
                                sums=lengths.copy(), lengths=lengths)
        cone = ssn_mod.write_cone(np.empty(w.size), blocks, 0.0, w, lam)
        assert cone.x.tobytes() == w.tobytes()
        assert cone.lam_sums is None
        assert cone.block_starts.tolist() == [0, 1, 5]
        self.assert_record(cone, lam)


class TestDualGradient:
    @settings(max_examples=400, deadline=None)
    @given(truncation_cases())
    def test_projection_ahead_of_the_zero_tail_at_hi_is_exact(self, case):
        # Below hi only the coordinates ahead of the zero block at hi are
        # projected; phi' and the projection come out byte-identical.
        w, weights, hi, y = case
        top = project_cone(hi * weights.values + w).zero_start
        assume(top > 0)
        grad, p = dual_gradient(y, w, weights, 0.7, top)
        full_grad, full = dual_gradient(y, w, weights, 0.7)
        assert np.float64(grad).tobytes() == np.float64(full_grad).tobytes()
        assert p.x.tobytes() == full.x.tobytes()
        assert p.block_starts.tobytes() == full.block_starts.tobytes()
        assert block_values(p).tobytes() == block_values(full).tobytes()

    def test_hand_examples(self):
        w = np.array([3.0, 1.0])
        lam = Weights([1.0, 1.0])
        g0, p0 = dual_gradient(0.0, w, lam, 2.0)
        assert g0 == 2.0
        assert np.array_equal(p0.x, w)
        g1, p1 = dual_gradient(-1.0, w, lam, 2.0)
        assert g1 == 0.0
        assert np.array_equal(p1.x, [2.0, 0.0])

    def test_zero_projection_gives_minus_tau(self):
        w = np.array([3.0, 1.0])
        g, p = dual_gradient(-10.0, w, Weights([1.0, 1.0]), 2.0)
        assert g == -2.0
        assert not np.any(p.x)

    def test_monotone_nondecreasing(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            w, weights, tau = random_sorted_instance(rng, 15)
            ys = np.sort(rng.uniform(-5.0, 5.0, size=30))
            grads = [dual_gradient(float(y), w, weights, tau)[0] for y in ys]
            assert np.all(np.diff(grads) >= -1e-12)


class TestBlockCurvature:
    """``block_curvature`` against ``lam.T H lam`` through the Jacobian matvec."""

    @staticmethod
    def jacobian_curvature(p, weights):
        lam = weights.values
        return float(np.dot(lam, apply_cone_jacobian(p, lam)))

    def assert_matches_jacobian(self, d, weights):
        p = project_cone(d)
        reference = self.jacobian_curvature(p, weights)
        m = block_curvature(p, weights.values)
        assert reference > 0.0
        assert abs(m - reference) <= 1e-13 * reference

    @staticmethod
    def random_weights(rng, n):
        lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        lam[0] += 0.01
        lam[rng.integers(1, n + 1):] = 0.0      # sometimes a zero tail
        return Weights(lam)

    def test_random_projections(self):
        rng = np.random.default_rng(60)
        for _ in range(300):
            n = int(rng.integers(1, 2000))
            self.assert_matches_jacobian(rng.standard_normal(n) + 0.5,
                                         self.random_weights(rng, n))

    def test_tied_projections(self):
        # Long runs of identical entries pool into blocks whose values the
        # tie repair restores exactly; plateau weights tie lam as well.
        rng = np.random.default_rng(61)
        for _ in range(200):
            n = int(rng.integers(1, 2000))
            d = np.round(rng.standard_normal(n), 1) + 0.5
            lam = np.repeat(rng.uniform(0.1, 2.0, 3), [1, n // 2, n - 1 - n // 2])
            self.assert_matches_jacobian(d, Weights(np.sort(lam)[::-1]))

    def test_zero_tail_projections(self):
        rng = np.random.default_rng(62)
        for _ in range(200):
            n = int(rng.integers(2, 2000))
            d = np.sort(rng.standard_normal(n))[::-1] - rng.uniform(0.0, 1.0)
            d[0] = abs(d[0]) + 0.1
            d[-1] = -abs(d[-1]) - 0.1
            p = project_cone(d)
            assert block_values(p)[-1] == 0.0
            self.assert_matches_jacobian(d, self.random_weights(rng, n))

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_nondecreasing_in_y(self, data):
        # The lemma behind the unguarded Newton step (ssn module
        # docstring): blocks only coarsen as y falls, so M(y) never
        # decreases along y and phi' is convex.  w is signed, unsorted and
        # maybe rounded; the weights maybe tied or with trailing zeros.
        n = data.draw(st.integers(1, 12))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        w = rng.standard_normal(n)
        if data.draw(st.booleans()):
            w = np.round(w, data.draw(st.integers(0, 1)))
        lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
        if data.draw(st.booleans()):
            lam = np.round(lam, 1)
        lam[0] += 0.01
        lam[data.draw(st.integers(1, n)):] = 0.0
        weights = Weights(lam)
        span = data.draw(st.sampled_from([1.0, 10.0, 100.0]))
        m = np.array([block_curvature(dual_gradient(float(y), w, weights, 1.0)[1], lam)
                      for y in np.linspace(-span, span, 401)])
        assert np.all(np.diff(m) >= -1e-12 * m[:-1])

    def test_singleton_only_projections(self):
        # Strictly decreasing input lies in the cone; a zero last entry
        # makes the last singleton the zero block.
        rng = np.random.default_rng(63)
        for _ in range(200):
            n = int(rng.integers(1, 2000))
            d = np.cumsum(rng.uniform(0.01, 1.0, n))[::-1]
            if n > 1 and rng.random() < 0.5:
                d[-1] = rng.choice([0.0, -0.0])
            assert project_cone(d).num_blocks == n
            self.assert_matches_jacobian(d, self.random_weights(rng, n))

    def test_zero_projection_is_exactly_zero(self):
        # solve branches on m > 0.0, so roundoff must not leave a residue.
        rng = np.random.default_rng(64)
        for n in (1, 2, 17, 1000):
            weights = self.random_weights(rng, n)
            p = project_cone(-np.abs(rng.standard_normal(n)))
            assert not p.x.any()
            assert block_curvature(p, weights.values) == 0.0
            assert self.jacobian_curvature(p, weights) == 0.0


class TestSolveBasics:
    def test_one_step_example(self):
        # phi'(y) = 2 (3 + 2y) + (1 + y) - 4.5 on the piece holding 0 and
        # the root: affine, so one Newton step lands on y* = -0.5.
        report = solve(np.array([3.0, 1.0]), Weights([2.0, 1.0]), 4.5)
        assert report.converged and report.stop == "residual"
        assert report.iterations == 1
        assert report.y_star == -0.5
        assert np.array_equal(report.x_star, [2.0, 0.5])
        assert report.residual_eta == 0.0
        (step,) = report.step_trace
        assert step.y == 0.0
        assert step.grad == 2.5
        assert step.curvature == 5.0
        assert step.kind == "newton"
        assert step.unit_step

    def test_model_start_lands_on_the_l1_root(self):
        # With L1 weights the first step goes on to the sort-based
        # L1-ball threshold: w = [3, 1] at radius 2 is solved at y = -1
        # in that one step, where the Newton step alone stops at -0.5.
        report = solve(np.array([3.0, 1.0]), Weights([1.0, 1.0]), 2.0)
        assert report.converged and report.stop == "residual"
        assert report.iterations == 1
        (step,) = report.step_trace
        assert (step.y, step.grad, step.curvature, step.kind) == (0.0, 2.0, 2.0, "newton")
        assert report.y_star == -1.0
        assert np.array_equal(report.x_star, [2.0, 0.0])

    def test_model_start_on_a_strictly_decreasing_w_is_bitwise_unchanged(self):
        # On a strictly decreasing start Pi_C(w) is w itself, and the
        # model start takes one cumulative sum of w for both of its
        # roots.  A prefix of that sum is bitwise the prefix's own, so
        # the first step lands where a separate copy of w puts it.
        rng = np.random.default_rng(25)
        checked = 0
        for k in range(200):
            n = int(rng.integers(1, 3000))
            w = np.sort(np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-3, 4))[::-1]
            if not ssn_mod.strictly_decreasing(w):
                continue
            top = int(rng.integers(1, n + 1))
            lam = np.where(np.arange(n) < top, (1.0, 0.3, 2.5)[k % 3], 0.0)
            weights = Weights(lam)
            tau = float(rng.uniform(0.05, 0.95)) * float(np.dot(w, lam))
            alias = ssn_mod.plateau_model_root(w, w, weights, tau)
            copied = ssn_mod.plateau_model_root(w, w.copy(), weights, tau)
            assert np.float64(alias).tobytes() == np.float64(copied).tobytes()
            report = solve(w, weights, tau)
            grad = float(np.dot(w, lam)) - tau
            m = float(np.dot(lam[:n - int(w[-1] == 0.0)], lam[:n - int(w[-1] == 0.0)]))
            if report.step_trace and grad > 0.0:
                landing = (report.step_trace[1].y if report.iterations > 1
                           else report.y_star)
                want = min(-grad / m, copied)
                assert np.float64(landing).tobytes() == np.float64(want).tobytes()
                checked += 1
        assert checked >= 150

    @staticmethod
    def count_projections(monkeypatch):
        # One call per projection, block steps included: (entries
        # projected, positive blocks of the result, where its zero block
        # starts among the coordinates, whether the entries were blocks,
        # weighted by their lengths).
        calls = []
        inner = ssn_mod.project_cone

        def counted(d, n=None, weights=None):
            p = inner(d, n, weights)
            top = p.zero_start if weights is None else int(np.sum(weights[:p.zero_start]))
            calls.append((len(d), p.num_blocks - int(p.zero_tail), top, weights is not None))
            return p

        monkeypatch.setattr(ssn_mod, "project_cone", counted)
        return calls

    def test_converged_start_costs_zero_iterations(self, monkeypatch):
        calls = self.count_projections(monkeypatch)
        report = solve(np.array([3.0, 1.0]), Weights([1.0, 1.0]), 2.0,
                       SsnParams(y0=-1.0))
        assert report.converged
        assert report.iterations == 0
        assert report.step_trace == []
        assert len(calls) == 1

    def test_converged_in_cone_start_still_reports_its_projection(self, monkeypatch):
        # At y0 = 0 with w strictly decreasing the start needs no
        # projection; a start that is already the root projects once,
        # for the report.
        calls = self.count_projections(monkeypatch)
        w = np.array([3.0, 1.0])
        report = solve(w, Weights([1.0, 1.0]), 4.0)
        assert report.converged and report.iterations == 0
        assert len(calls) == 1
        assert np.array_equal(report.x_star, w)
        assert report.cone.num_blocks == 2

    def test_projection_count_accounting(self, monkeypatch):
        # Cost contract: one projection per iteration, at the point it
        # steps to.  The start at y0 = 0 costs none when w is strictly
        # decreasing with w[-1] >= 0, since phi' and M are read off w;
        # a tied w or a start y0 != 0 costs one more, of full length.
        # With plateau weights (the second 75 solves) the first step
        # from 0 goes on to the model root, and counts as an iteration.
        # Before any point with phi' >= 0 a step projects all n
        # coordinates.  Below hi, the last such point so far, it projects
        # the positive blocks of the projection at hi, one entry each
        # weighted by its length, or, where none of them pooled, the
        # coordinates ahead of hi's zero block.  StepRecord.projected
        # says how many entries that was.  OSCAR weights linspace(2, 1, n)
        # and weights with a zero tail take the last 100 solves.  At
        # eps = 1e-300 a solve ends where roundoff decides, and many end
        # on a block step's reading, with x written off its blocks.
        calls = self.count_projections(monkeypatch)
        rng = np.random.default_rng(43)
        prefixes = block_steps = block_ended = modeled = 0
        for k in range(250):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 60)))
            n, lam = w.size, weights.values
            if k >= 75:
                if k < 150:
                    lam = np.where(np.arange(n) < rng.integers(1, n + 1), lam[0], 0.0)
                elif k < 200:
                    lam = np.linspace(2.0, 1.0, n)
                else:
                    lam = np.where(np.arange(n) < rng.integers(1, n + 1), lam, 0.0)
                weights = Weights(lam)
                tau = float(rng.uniform(0.05, 0.95)) * float(np.dot(w, lam))
            params, extra = SsnParams(), 0
            if k % 3 == 1:
                w[0] = w[1]               # a tie, and a zero tail
                w[max(2, n - 2):] = (0.0, -0.0)[k % 2]
                tau = 0.5 * float(np.dot(w, lam))
                extra = 1
            elif k % 3 == 2:
                params, extra = SsnParams(y0=-0.25), 1
            elif k % 4 == 0:
                w[-1] = 0.0               # an in-cone start with a zero entry
            else:
                params = SsnParams(eps=1e-300)
            calls.clear()
            report = solve(w, weights, tau, params)
            assert report.stop != "cap" and report.iterations >= 1
            assert report.converged or params.eps < EPS
            assert len(calls) == report.iterations + extra
            # (positive blocks, zero start) at each point the solve
            # projected, from the start on; an in-cone start's are w's
            # singletons ahead of its zero entry.
            points = [c[1:3] for c in calls]
            if not extra:
                points.insert(0, (n - int(w[-1] == 0.0),) * 2)
            hi = None
            for j, step in enumerate(report.step_trace):
                entries, _, _, weighted = calls[j + extra]
                assert step.projected == entries
                if step.grad >= 0.0:
                    hi = points[j]
                if hi is None:
                    assert entries == n and not weighted
                elif hi[0] < hi[1]:
                    assert entries == hi[0] and weighted
                    block_steps += 1
                else:
                    assert entries == hi[1] and not weighted
                    prefixes += hi[1] < n
            first = report.step_trace[0]
            modeled += weights.plateau is not None and first.y == 0.0 < first.grad
            block_ended += params.eps < EPS and report.cone.lam_sums is not None
        assert block_steps >= 300 and prefixes >= 25 and block_ended >= 20 and modeled >= 40

    def test_in_cone_start_matches_the_projected_start(self, monkeypatch):
        # The closed-form start gives the very steps that projecting w
        # first gives, bit for bit, zero last entry included.
        rng = np.random.default_rng(53)
        cases = []
        for k in range(60):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(1, 80)))
            if k % 2:
                w[-1] = (0.0, -0.0)[k % 4 // 2]
            cases.append((w, weights, tau))
        fast = [solve(*case) for case in cases]
        monkeypatch.setattr(ssn_mod, "strictly_decreasing", lambda d: False)
        for case, report in zip(cases, fast):
            slow = solve(*case)
            assert report.step_trace == slow.step_trace
            assert report.y_star == slow.y_star
            assert report.x_star.tobytes() == slow.x_star.tobytes()

    def test_no_op_step_converges_without_a_projection(self, monkeypatch):
        # eps = 1e-300 is below the roundoff of phi', so these solves end
        # on the no-op, where the Newton step from the last iterate is at
        # most 8 ulps of y, or, where a step would leave the bracket, on
        # a reading of phi' within its roundoff.  Both count as converged
        # and project nothing; each is checked against its own condition.
        calls = self.count_projections(monkeypatch)
        rng = np.random.default_rng(54)
        noops = 0
        for _ in range(40):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 200)))
            calls.clear()
            report = solve(w, weights, tau, SsnParams(eps=1e-300))
            if report.residual_eta <= 1e-300:
                continue
            assert report.converged
            assert len(calls) == report.iterations
            grad, p = dual_gradient(report.y_star, w, weights, tau)
            if report.stop == "roundoff":
                assert abs(grad) <= gradient_error(report.y_star, grad, w, weights.values, tau)
                continue
            assert report.stop == "noop"
            step = grad / block_curvature(p, weights.values)
            assert abs(step) <= 8.0 * EPS * abs(report.y_star)
            noops += 1
        assert noops >= 30

    def test_input_validation(self):
        lam = Weights([1.0, 1.0])
        with pytest.raises(ValueError):
            solve(np.array([3.0, 1.0, 0.0]), lam, 2.0)
        with pytest.raises(ValueError):
            solve(np.array([3.0, 1.0]), lam, 0.0)

    @pytest.mark.parametrize("tau", [np.inf, -np.inf, np.nan])
    def test_rejects_nonfinite_tau(self, tau):
        # As Instance does; tau = inf used to give stop="cap" with a NaN
        # residual after 0 iterations.
        with pytest.raises(ValueError, match="finite"):
            solve(np.array([3.0, 1.0]), Weights([1.0, 1.0]), tau)

    @pytest.mark.parametrize("w", [[np.nan, 1.0], [np.inf, 1.0], [3.0, -np.inf]])
    def test_rejects_nonfinite_w(self, w):
        # [nan, 1] used to give stop="cap" after 0 iterations, and
        # [inf, 1] a RuntimeWarning and y_star = -inf.
        with pytest.raises(ValueError, match="finite"):
            solve(np.array(w), Weights([1.0, 1.0]), 1.0)

    def test_raw_weights_are_validated_as_weights(self):
        # As owl_norm, dual_norm and prox_owl do; a list used to raise
        # AttributeError on its missing .n.
        report = solve(np.array([3.0, 1.0]), [1.0, 1.0], 1.0)
        expected = solve(np.array([3.0, 1.0]), Weights([1.0, 1.0]), 1.0)
        assert report.converged
        assert report.x_star.tobytes() == expected.x_star.tobytes()
        for bad in ([1.0, 2.0], [0.0, 0.0], [1.0, -1.0]):
            with pytest.raises(ValueError):
                solve(np.array([3.0, 1.0]), bad, 1.0)

    def test_nonconvergence_is_reported_not_raised(self, monkeypatch):
        monkeypatch.setattr(ssn_mod, "_MAX_ITER", 1)
        rng = np.random.default_rng(44)
        w, weights, tau = random_sorted_instance(rng, 50, beta=0.3)
        report = solve(w, weights, tau, SsnParams(eps=1e-15))
        assert not report.converged
        assert report.iterations == 1
        assert len(report.step_trace) == 1
        assert report.residual_eta > 1e-15

    def test_accepts_unsorted_signed_w(self):
        # The dual is defined for any w, not only sorted magnitudes.
        rng = np.random.default_rng(45)
        for _ in range(50):
            n = int(rng.integers(2, 12))
            w = rng.standard_normal(n)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.01
            weights = Weights(lam)
            kappa = float(np.dot(np.sort(np.abs(w))[::-1], lam))
            tau = 0.4 * kappa
            if tau <= 0.0:
                continue
            report = solve(w, weights, tau)
            assert report.converged
            x = report.x_star
            # solution feasible for the constrained projection of w
            assert np.all(np.diff(x) <= 0.0) and x.min() >= 0.0
            assert abs(float(np.dot(x, lam)) - tau) <= 1e-10 * (1.0 + tau)
            # variational inequality against random feasible points
            for _ in range(20):
                z = project_cone(rng.standard_normal(n)).x
                s = float(np.dot(z, lam))
                if s <= 0.0:
                    continue
                z = z * (tau / s)
                assert float(np.dot(w - x, z - x)) <= 1e-10 * (1.0 + np.dot(w, w))

    def test_gradient_step_fallback(self):
        # Start far below the root where the projection vanishes: no
        # curvature, so the solver walks up with plain gradient steps
        # before Newton takes over.
        report = solve(np.array([3.0, 1.0]), Weights([1.0, 1.0]), 2.0,
                       SsnParams(y0=-30.0))
        assert report.converged
        first = report.step_trace[0]
        assert first.curvature == 0.0
        assert not first.unit_step
        assert report.y_star == pytest.approx(-1.0, abs=1e-10)

    @pytest.mark.parametrize("n, seed", [(2, 0), (3, 1)])
    def test_default_start_takes_the_gradient_step_below_roundoff(self, n, seed):
        # A radius below the roundoff of phi' sends the default start's
        # second Newton step onto the flat piece, and the gradient step
        # leaves it; the solve then stops on a no-op within roundoff of
        # the oracle.  So the in-loop gradient step is not only a caller's.
        inst = generate_instance(n, 1.0, 3e-17, cell_rng(seed, 0, 0, 0, 0))
        res = project_ball(inst)
        assert "gradient" in [step.kind for step in res.report.step_trace]
        assert res.report.stop == "noop" and res.report.converged
        eps = np.finfo(np.float64).eps
        assert np.max(np.abs(res.x - oracle_ball(inst))) <= 4.0 * eps * np.max(np.abs(inst.b))
        if n == 2:
            # The roundoff of the bound at t = 1 exceeds tau here, so the
            # baseline's ends do not change sign: reported, not raised.
            rf = solve_root(inst)
            assert rf.stop == "bracket" and not rf.converged

    def test_trivial_adjacent_boundary(self):
        rng = np.random.default_rng(46)
        for _ in range(20):
            w, weights, _ = random_sorted_instance(rng, int(rng.integers(2, 10)))
            kappa = float(np.dot(w, weights.values))
            tau = kappa * (1.0 - 1e-12)
            report = solve(w, weights, tau)
            assert report.converged
            assert abs(float(np.dot(report.x_star, weights.values)) - tau) \
                <= 1e-12 * (1.0 + tau)


class TestSolveProperties:
    def test_bracket_holds_in_trace(self):
        # Replay the trace: every point evaluated so far narrows the
        # bracket (lo, hi), and every step goes strictly inside the
        # current one, where phi' is negative at lo and positive at hi
        # (recomputed here, not read off the trace).  Starts below the
        # root leave the flat piece where M = 0 with gradient steps, each
        # taken from the piece's end or beyond.
        rng = np.random.default_rng(47)
        kinds = set()
        for k in range(60):
            w, weights, tau = random_sorted_instance(
                rng, int(rng.integers(2, 200)),
                sigma=float(rng.choice([1e-3, 1.0, 1e3])))
            flat_end = -sorted_dual_norm(w, weights.values)
            y0 = (0.0, -3.0, 3.0, -0.5)[k % 4] * float(np.max(w))
            report = solve(w, weights, tau, SsnParams(y0=y0))
            assert report.converged
            lo, hi = -np.inf, np.inf
            ys = [s.y for s in report.step_trace] + [report.y_star]
            for s, y_next in zip(report.step_trace, ys[1:]):
                kinds.add(s.kind)
                if s.grad < 0.0:
                    lo = s.y
                else:
                    hi = s.y
                assert lo < y_next < hi
                for end, sign in ((lo, -1.0), (hi, 1.0)):
                    if np.isfinite(end):
                        grad, _ = dual_gradient(end, w, weights, tau)
                        assert np.sign(grad) == sign
                if s.kind == "newton":
                    assert s.curvature > 0.0
                    assert y_next == s.y - s.grad / s.curvature
                elif s.kind == "gradient":
                    assert s.curvature == 0.0
                    assert y_next == max(s.y, flat_end) - s.grad
        assert kinds == {"newton", "gradient"}

    def test_start_on_the_flat_piece_jumps_to_its_end(self):
        # Far below the root the projection is zero, phi' = -tau, and
        # gradient steps of size tau alone would take (end - y0) / tau
        # iterations to leave the flat piece: 284 here.  The one gradient
        # step is taken from the piece's end, where phi' is still -tau,
        # so it leaves the piece and Newton finishes.
        w = np.array([0.3396, 0.3249])
        weights = Weights([0.5, 0.1])
        report = solve(w, weights, 0.01373, SsnParams(y0=-5.0))
        assert report.converged
        assert [s.kind for s in report.step_trace] == ["gradient", "newton"]
        first = report.step_trace[0]
        assert first.grad == -0.01373
        assert report.step_trace[1].y == -sorted_dual_norm(w, weights.values) - first.grad
        # Signed, unsorted w and starts on both sides of the root.
        rng = np.random.default_rng(50)
        for k in range(3000):
            n = int(rng.integers(1, 8))
            lam = np.sort(rng.random(n))[::-1]
            lam[0] += 0.01
            tau = float(np.exp(rng.uniform(np.log(1e-3), np.log(2.0))))
            y0 = (0.0, 1.0, -1.0, 2.0, -2.0, 5.0, -5.0)[k % 7]
            report = solve(rng.standard_normal(n), Weights(lam), tau,
                           SsnParams(y0=y0))
            assert report.converged
            assert report.iterations <= 4

    def test_converges_where_roundoff_sends_a_step_out_of_the_bracket(self):
        # eps = 1e-300 asks for phi' = 0 exactly, so a solve that misses it
        # ends on a no-op Newton step or when roundoff sends a step out of
        # the bracket, with phi' read within its roundoff: converged
        # within a few iterations, with x in the cone, at the default-eps
        # root.
        rng = np.random.default_rng(53)
        for k in range(300):
            w, weights, tau = random_sorted_instance(
                rng, int(rng.integers(2, 200)), sigma=(1e-3, 1.0, 1e3)[k % 3])
            report = solve(w, weights, tau, SsnParams(eps=1e-300))
            assert report.converged
            assert {s.kind for s in report.step_trace} <= {"newton", "gradient"}
            if report.stop == "roundoff":
                grad, _ = dual_gradient(report.y_star, w, weights, tau)
                assert abs(grad) <= gradient_error(report.y_star, grad, w, weights.values, tau)
            assert report.iterations <= 12
            x = report.x_star
            assert np.all(np.diff(x) <= 0.0)
            assert x.min() >= 0.0
            assert report.residual_eta <= 1e-13
            y_star = solve(w, weights, tau).y_star
            assert abs(report.y_star - y_star) <= 1e-14 * abs(y_star)

    def test_unique_root_from_any_start(self):
        rng = np.random.default_rng(48)
        for _ in range(50):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 40)))
            stars = [solve(w, weights, tau, SsnParams(y0=y0)).y_star
                     for y0 in (0.0, -10.0, 10.0)]
            assert max(stars) - min(stars) <= 1e-10

    def test_final_newton_step_is_a_no_op(self):
        # Once converged, the active piece is identified exactly: another
        # full Newton step must not move y beyond roundoff, and the
        # gradient there is already below the working tolerance.  The
        # step is grad/m where grad is pure cancellation noise, so its
        # size is a small multiple of eps; measured max over this family
        # is 2.5x, bounded here at 4x.
        rng = np.random.default_rng(49)
        for k in range(1000):
            sigma = (1e-3, 1.0)[k % 2]
            w, weights, tau = random_sorted_instance(
                rng, int(rng.integers(2, 11)), sigma=sigma)
            report = solve(w, weights, tau)
            assert report.converged
            grad, p = dual_gradient(report.y_star, w, weights, tau)
            assert abs(grad) < 1e-12 * (1.0 + tau)
            m = block_curvature(p, weights.values)
            assert m > 0.0
            assert abs(grad / m) <= 4.0 * EPS * (1.0 + abs(report.y_star))

    def test_quadratic_tail_on_last_unit_steps(self):
        # Tail contraction of the Newton phase: the residual after the
        # final unit step either improves quadratically on the previous
        # unit step's residual or has already hit the tolerance.
        rng = np.random.default_rng(50)
        params = SsnParams(eps=1e-14)
        for _ in range(100):
            w, weights, tau = random_sorted_instance(rng, 1000)
            report = solve(w, weights, tau, params)
            assert report.converged
            grads = [s.grad for s in report.step_trace[1:]]
            residuals = [abs(g) / tau for g in grads]
            residuals.append(report.residual_eta)
            unit_res = [residuals[j] for j, s in enumerate(report.step_trace)
                        if s.unit_step]
            assert len(unit_res) >= 1
            if len(unit_res) >= 2:
                r_prev, r_last = unit_res[-2], unit_res[-1]
                assert r_last <= 1e3 * r_prev ** 2 or r_last <= params.eps

    def test_primal_solution_lies_in_cone_exactly(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 100)))
            x = solve(w, weights, tau).x_star
            assert np.all(np.diff(x) <= 0.0)
            assert x.min() >= 0.0

    def test_matches_small_instance_oracle(self):
        # Independent check of the KKT system via brute-force enumeration
        # on the sorted problem.
        rng = np.random.default_rng(52)
        for _ in range(100):
            w, weights, tau = random_sorted_instance(rng, int(rng.integers(2, 9)))
            report = solve(w, weights, tau)
            assert report.converged
            cert = ball_certificate(Instance(w, weights, tau))
            assert cert.max_violation <= 1e-10
            assert np.max(np.abs(report.x_star - cert.x)) <= 1e-8
