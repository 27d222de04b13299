import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from owlball import (
    BallJacobian,
    Instance,
    Weights,
    apply_ball_jacobian,
    ball_jacobian,
    owl_norm,
    project_ball,
)
from owlball.core import SignedSort, signed_sort
from owlball.isotonic import ConeProjection, project_cone
from owlball.ssn import solve

from oracle import (
    DENSE_CAP,
    active_set,
    apply_cone_jacobian,
    block_curvature,
    block_tuples,
    block_values,
    dense_cone_jacobian,
    difference_matrix,
    tight_set_blocks,
)

EPS = float(np.finfo(np.float64).eps)


def implicit_dense(p) -> np.ndarray:
    """Materialize the implicit operator on the piece of ``p`` column by column."""
    return np.column_stack([apply_cone_jacobian(p, e) for e in np.eye(p.n)])


def ball_dense(s: BallJacobian) -> np.ndarray:
    return np.column_stack([apply_ball_jacobian(s, e) for e in np.eye(s.n)])


def random_tight_set(rng, n: int) -> np.ndarray:
    return np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9))


class TestDenseReference:
    def test_empty_set_is_identity(self):
        assert np.array_equal(dense_cone_jacobian([], 3), np.eye(3))

    def test_full_set_is_zero(self):
        assert np.allclose(dense_cone_jacobian([0, 1, 2], 3), 0.0, atol=1e-14)

    def test_leading_pool(self):
        # First two difference constraints tight on n = 3: every
        # coordinate joins one averaging group.
        H = dense_cone_jacobian([0, 1], 3)
        assert np.allclose(H, np.full((3, 3), 1.0 / 3.0), atol=1e-14)

    def test_zero_tail(self):
        # Only the sign constraint on the last coordinate.
        H = dense_cone_jacobian([2], 3)
        assert np.allclose(H, np.diag([1.0, 1.0, 0.0]), atol=1e-14)

    def test_cap(self):
        with pytest.raises(ValueError):
            dense_cone_jacobian([0], DENSE_CAP + 1)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            dense_cone_jacobian([3], 3)


class TestConeJacobian:
    def test_identity_when_no_constraint_tight(self):
        p = project_cone(np.array([5.0, 3.0, 1.0]))
        v = np.array([1.0, -2.0, 7.0])
        assert np.array_equal(apply_cone_jacobian(p, v), v)

    def test_zero_when_projection_is_zero(self):
        p = project_cone(np.array([-1.0, -2.0, 3.0]))
        assert np.array_equal(apply_cone_jacobian(p, np.ones(3)), np.zeros(3))

    def test_pooled_example(self):
        p = project_cone(np.array([1.0, 3.0, 2.0]))
        got = apply_cone_jacobian(p, np.array([3.0, 0.0, 0.0]))
        assert np.allclose(got, np.ones(3), atol=1e-15)
        assert np.allclose(implicit_dense(p), np.full((3, 3), 1.0 / 3.0),
                           atol=1e-15)

    def test_matches_dense_on_random_tight_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            gamma = random_tight_set(rng, n)
            p = tight_set_blocks(gamma, n)
            Hd = dense_cone_jacobian(gamma, n)
            v = rng.standard_normal(n)
            assert np.max(np.abs(apply_cone_jacobian(p, v) - Hd @ v)) <= 1e-12
            Hi = implicit_dense(p)
            assert np.max(np.abs(Hi - Hd)) <= 1e-12
            # projector identities, checked on the exact implicit form
            assert np.max(np.abs(Hi @ Hi - Hi)) <= 1e-12
            assert np.array_equal(Hi, Hi.T)
            assert Hi.min() >= 0.0

    def test_pooled_mean_after_a_large_prefix(self):
        # A mean taken as a difference of a running sum loses the digits
        # that the 1e8-sized prefix occupies; a direct block sum keeps them.
        d = np.concatenate((np.linspace(2e8, 1e8, 1000), [1e-3, 2e-3, 1e-3]))
        v = np.concatenate((np.full(1000, 1e8), [1e-3, 3e-3, 2e-3]))
        p = project_cone(d)
        out = apply_cone_jacobian(p, v)
        pooled = [(s, e) for s, e, _ in block_tuples(p) if e - s > 1]
        assert pooled == [(1000, 1002)]
        mean = math.fsum(v[1000:1002]) / 2
        assert np.all(np.abs(out[1000:1002] - mean) <= 4 * EPS * mean)

    def test_apply_rejects_wrong_length(self):
        p = project_cone(np.array([1.0, 3.0, 2.0]))
        with pytest.raises(ValueError):
            apply_cone_jacobian(p, np.ones(4))

    def test_tight_set_blocks_validates_indices(self):
        with pytest.raises(ValueError):
            tight_set_blocks([5], 3)
        with pytest.raises(ValueError):
            tight_set_blocks([-1], 3)

    def test_tight_set_route_matches_projection_blocks(self):
        # The two routes to the blocks H is read from: a canonical
        # projection, and the oracle's projection on its maximal tight
        # set, whose values are made up but whose blocks must agree.
        rng = np.random.default_rng(36)
        zero = zero_tail = 0
        for k in range(600):
            n = int(rng.integers(1, 41))
            d = rng.standard_normal(n) + (0.0, 0.5, -0.5)[k % 3]
            if k % 7 == 0:
                d = np.round(d, 1)      # tied runs pool into blocks
            p = project_cone(d)
            q = tight_set_blocks(active_set(p), n)
            assert np.array_equal(q.block_starts, p.block_starts)
            assert q.zero_tail == (block_values(p)[-1] == 0.0)
            assert np.array_equal(active_set(q), active_set(p))
            assert np.array_equal(apply_cone_jacobian(q, d), apply_cone_jacobian(p, d))
            zero += not p.x.any()
            zero_tail += q.zero_tail and bool(p.x.any())
        assert zero >= 20 and zero_tail >= 100


class TestCurvature:
    def test_identity_gives_squared_norm(self):
        p = project_cone(np.array([5.0, 3.0, 1.0]))
        lam = np.array([2.0, 1.0, 0.5])
        assert block_curvature(p, lam) == pytest.approx(4.0 + 1.0 + 0.25, rel=1e-15)

    def test_zero_projection_gives_zero(self):
        p = project_cone(np.array([-1.0, -2.0, 3.0]))
        assert block_curvature(p, np.ones(3)) == 0.0

    def test_pooled_example(self):
        p = project_cone(np.array([1.0, 3.0, 2.0]))
        assert block_curvature(p, np.ones(3)) == pytest.approx(3.0, rel=1e-14)

    def test_nonnegative_and_positive_off_zero(self):
        rng = np.random.default_rng(32)
        for _ in range(200):
            n = int(rng.integers(1, 40))
            d = rng.standard_normal(n)
            p = project_cone(d)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.1
            m = block_curvature(p, lam)
            assert m >= 0.0
            if np.any(p.x != 0.0):
                assert m > 0.0


class TestRankOneUpdate:
    def test_constrained_projector_identity(self):
        # Projecting onto Null(B_G) intersected with alpha-orthogonality
        # equals H minus the normalized outer product of H alpha: the
        # O(n) construction hinges on this.
        rng = np.random.default_rng(33)
        B_rows_cache = {}
        for _ in range(300):
            n = int(rng.integers(2, 31))
            if n not in B_rows_cache:
                B_rows_cache[n] = difference_matrix(n)
            gamma = random_tight_set(rng, n)
            if gamma.size == n:
                gamma = gamma[:-1]
            alpha = rng.standard_normal(n)
            Hd = dense_cone_jacobian(gamma, n)
            alpha1 = Hd @ alpha
            if np.linalg.norm(alpha1) < 1e-8:
                continue
            A = np.vstack([alpha, B_rows_cache[n][gamma]])
            lhs = np.eye(n) - A.T @ np.linalg.solve(A @ A.T, A)
            rhs = Hd - np.outer(alpha1, alpha1) / float(alpha1 @ alpha1)
            assert np.max(np.abs(lhs - rhs)) <= 1e-11


class TestLocalLinearization:
    def test_cone_projector_locality(self):
        # Near d the projector is affine with slope H taken at the
        # perturbed point, provided the perturbation keeps the tight set
        # inside the one at d; shrink the radius until it does.
        rng = np.random.default_rng(34)
        checked = 0
        attempts = 0
        while checked < 100 and attempts < 1000:
            attempts += 1
            n = int(rng.integers(2, 40))
            d = rng.standard_normal(n)
            p = project_cone(d)
            if not np.any(p.x != 0.0):
                continue
            gamma = set(active_set(p).tolist())
            u = rng.standard_normal(n)
            u /= np.linalg.norm(u)
            for radius in (1e-3, 1e-5, 1e-7, 1e-9):
                dp = d + radius * u
                pp = project_cone(dp)
                if set(active_set(pp).tolist()) <= gamma:
                    defect = pp.x - p.x - apply_cone_jacobian(pp, dp - d)
                    assert np.max(np.abs(defect)) <= 1e-10
                    checked += 1
                    break
            else:
                pytest.fail("tight set never stabilized in the shrinking ball")
        assert checked == 100


class TestBallJacobian:
    def test_interior_tight_set_example(self):
        # No tight constraints at the solution: S is the projector onto
        # the orthogonal complement of the weight vector.
        inst = Instance([3.0, 2.0], Weights([1.0, 1.0]), 4.0)
        res = project_ball(inst)
        assert np.allclose(res.x, [2.5, 1.5], atol=1e-12)
        s = ball_jacobian(inst, res.report)
        expected = np.array([[0.5, -0.5], [-0.5, 0.5]])
        assert np.max(np.abs(ball_dense(s) - expected)) <= 1e-12
        got = apply_ball_jacobian(s, np.array([1.0, 0.0]))
        assert np.allclose(got, [0.5, -0.5], atol=1e-12)
        # the operator annihilates the weight vector by construction
        slam = apply_ball_jacobian(s, inst.weights.values)
        assert np.max(np.abs(slam)) <= 1e-14

    def test_nonsmooth_point_gives_zero_operator(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        res = project_ball(inst)
        assert np.allclose(res.x, [2.0, 0.0], atol=1e-12)
        s = ball_jacobian(inst, res.report)
        assert np.max(np.abs(ball_dense(s))) <= 1e-14

    def test_rejects_plain_dual_value(self):
        inst = Instance([3.0, 2.0], Weights([1.0, 1.0]), 4.0)
        with pytest.raises(ValueError, match="no sort"):
            ball_jacobian(inst, -0.5)

    def test_rejects_report_with_zero_projection(self):
        # A cone projection that is zero gives H lam = 0, so there is no
        # u; no converged solve leaves one, and building refuses it.
        inst = Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        report = project_ball(inst).report
        zero = project_cone(np.array([-10.0, -10.0]))
        assert not zero.x.any()
        with pytest.raises(ValueError, match="H lam = 0"):
            ball_jacobian(inst, replace(report, cone=zero))

    def test_symmetric_positive_semidefinite(self):
        rng = np.random.default_rng(35)
        done = 0
        while done < 100:
            n = int(rng.integers(2, 51))
            b = rng.standard_normal(n) * rng.choice([0.1, 1.0, 10.0])
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            if lam[0] <= 0.0:
                continue
            w = Weights(lam)
            kappa = owl_norm(b, w)
            inst = Instance(b, w, float(rng.uniform(0.05, 0.95)) * kappa)
            res = project_ball(inst)
            assert res.report is not None and res.report.converged
            s = ball_jacobian(inst, res.report)
            S = ball_dense(s)
            assert np.max(np.abs(S - S.T)) <= 1e-12
            assert np.linalg.eigvalsh(S).min() >= -1e-10
            done += 1


def cone_table(cone, sort):
    """The bins of ``H`` in original coordinates, read off the blocks of
    ``cone`` one coordinate at a time: positive pooled block ``j`` holds
    bins ``2j`` and ``2j+1`` for the sign bit of ``sort.b`` clear and
    set, the zero block bins ``2m`` and ``2m+1``, and each positive
    singleton a bin of its own from ``2m+2`` on, in increasing original
    position ``perm[k]``; ``inv_sizes`` as in ``BallJacobian``."""
    perm, negative = sort.perm, np.signbit(sort.b[sort.perm])
    blocks = block_tuples(cone)
    pooled = [(s, e) for s, e, v in blocks if v > 0.0 and e - s > 1]
    zero = [(s, e) for s, e, v in blocks if v == 0.0]
    singles = sorted(int(perm[s]) for s, e, v in blocks if v > 0.0 and e - s == 1)
    m = len(pooled)
    label = np.full(cone.n, -1, dtype=np.intp)
    for first, (s, e) in [(2 * j, block) for j, block in enumerate(pooled)] \
            + [(2 * m, block) for block in zero]:
        for k in range(s, e):
            label[perm[k]] = first + int(negative[k])
    for j, pos in enumerate(singles):
        label[pos] = 2 * m + 2 + j
    assert label.min() >= 0
    inv_sizes = np.array([1.0 / (e - s) for s, e in pooled])
    return label, inv_sizes


def cone_hb(cone, sort, lam) -> np.ndarray:
    """``hb`` of ``BallJacobian`` read off the blocks of ``cone`` in the bin
    order of :func:`cone_table`, each block sum by ``math.fsum``."""
    perm = sort.perm
    blocks = block_tuples(cone)
    pooled = [(s, e) for s, e, v in blocks if v > 0.0 and e - s > 1]
    singles = sorted((int(perm[s]), -lam[s] if np.signbit(sort.b[perm[s]]) else lam[s])
                     for s, e, v in blocks if v > 0.0 and e - s == 1)
    means = [math.fsum(lam[s:e]) / (e - s) for s, e in pooled]
    hb = np.array([h for mean in means for h in (mean, -mean)] + [0.0, 0.0]
                  + [w for _, w in singles])
    sq = math.fsum([(e - s) * mean ** 2 for (s, e), mean in zip(pooled, means)]
                   + [w ** 2 for _, w in singles])
    return hb / math.sqrt(sq)


def dense_ball_reference(inst: Instance, cone) -> np.ndarray:
    """``P.T (H - u u.T) P`` from the dense cone Jacobian of ``cone``."""
    n = inst.n
    sort, _ = signed_sort(inst.b)
    P = np.zeros((n, n))
    P[np.arange(n), sort.perm] = np.where(np.signbit(inst.b[sort.perm]), -1.0, 1.0)
    H = dense_cone_jacobian(active_set(cone), n)
    hlam = H @ inst.weights.values
    u = hlam / np.linalg.norm(hlam)
    return P.T @ (H - np.outer(u, u)) @ P


@st.composite
def ball_cases(draw):
    """Instances with n 1-40, Gaussian ``b`` (maybe with ties and
    zeros), L1, Linf, top-k or Gaussian weights, and radii from 1% to
    99% of ``owl_norm(b)``."""
    n = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = rng.standard_normal(n)
    if draw(st.booleans()):
        b = np.round(b, 1)                  # ties in |b|, some zeros
    family = draw(st.sampled_from(["l1", "linf", "top k", "gauss"]))
    if family == "gauss":
        lam = np.sort(np.abs(rng.standard_normal(n)))[::-1] + 0.01
    else:
        k = {"l1": n, "linf": 1}.get(family) or draw(st.integers(1, n))
        lam = np.where(np.arange(n) < k, 1.0, 0.0)
    w = Weights(lam)
    kappa = owl_norm(b, w)
    assume(kappa > 0.0)
    return Instance(b, w, draw(st.floats(0.01, 0.99)) * kappa)


class TestBallJacobianFromReport:
    """The operator built from ``project_ball``'s report, in original
    coordinates, against the dense reference."""

    @staticmethod
    def random_instance(rng, k: int) -> Instance:
        n = int(rng.integers(1, 41))
        b = rng.standard_normal(n)
        if k % 4 == 1:
            b = np.round(b, 1)                  # ties in |b|, some zeros
        if k % 6 == 2:
            b[rng.random(n) < 0.3] = 0.0        # explicit zeros
        family = k % 5
        if family == 0:
            lam = np.ones(n)                    # L1
        elif family == 1:
            lam = np.zeros(n)
            lam[0] = 1.0                        # L-inf
        else:
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1] + 0.01
        w = Weights(lam)
        beta = (0.02, 0.3, 0.7, 0.99)[k % 4]
        return Instance(b, w, max(beta * owl_norm(b, w), 1e-3))

    def test_matches_dense_reference(self):
        rng = np.random.default_rng(37)
        seen = dict(ties=0, zeros=0, zero_tail=0, all_singleton=0,
                    one_pooled=0)
        for k in range(800):
            inst = self.random_instance(rng, k)
            res = project_ball(inst)
            if res.trivial:
                continue
            assert res.report.converged
            cone = res.report.cone
            s = ball_jacobian(inst, res.report)
            S = ball_dense(s)
            assert np.max(np.abs(S - dense_ball_reference(inst, cone))) <= 1e-12
            mags = np.abs(inst.b)
            lengths = cone.block_lengths
            zero_tail = block_values(cone)[-1] == 0.0
            live = lengths[:cone.num_blocks - int(zero_tail)]
            seen["ties"] += np.unique(mags).size < inst.n
            seen["zeros"] += bool(np.any(mags == 0.0))
            seen["zero_tail"] += bool(zero_tail)
            seen["all_singleton"] += bool(np.all(lengths == 1))
            seen["one_pooled"] += int(np.sum(live > 1)) == 1
        assert min(seen.values()) >= 20, seen

    # (b, weights, tau, pooled blocks, singletons, zero tail) with the
    # block structure of the cone projection at the solution.
    SHAPES = {
        # b reversed, so the singletons' bins run against the sort.
        "all singletons": ([1.0, -2.0, 3.0], [1.0, 1.0, 1.0], 4.5, 0, 3, False),
        "singletons and a zero tail": ([3.0, -2.0, 1.0], [1.0, 1.0, 1.0], 2.0, 0, 2, True),
        "pooled only": ([2.0, 2.0, -1.0, 1.0], [1.0, 1.0, 1.0, 1.0], 4.0, 2, 0, False),
        "pooled and a zero tail": ([2.0, -2.0, 1.0, 1.0], [1.0, 1.0, 1.0, 1.0], 1.0,
                                   1, 0, True),
        "n = 1": ([-3.0], [2.0], 2.0, 0, 1, False),
        "ties and zeros in b": ([0.0, 1.5, -1.0, 0.0, 2.0, -2.0, 1.0, 0.5, 3.0],
                                [2.0, 1.9, 1.5, 1.2, 1.2, 1.0, 0.4, 0.3, 0.1], 8.0,
                                2, 3, True),
    }

    @pytest.mark.parametrize("shape", list(SHAPES))
    def test_matches_dense_reference_on_each_block_shape(self, shape):
        b, lam, tau, pooled, singles, zero_tail = self.SHAPES[shape]
        inst = Instance(b, Weights(lam), tau)
        res = project_ball(inst)
        assert not res.trivial and res.report.converged
        cone = res.report.cone
        lengths = cone.block_lengths[:cone.num_blocks - int(cone.zero_tail)]
        assert (int(np.sum(lengths > 1)), int(np.sum(lengths == 1)), cone.zero_tail) \
            == (pooled, singles, zero_tail)
        s = ball_jacobian(inst, res.report)
        assert s.inv_sizes.size == pooled
        assert s.hb.size == 2 * pooled + 2 + singles
        assert np.max(np.abs(ball_dense(s) - dense_ball_reference(inst, cone))) <= 1e-12

    @settings(max_examples=200, deadline=None)
    @given(inst=ball_cases())
    def test_symmetric_idempotent_and_annihilates_the_weights(self, inst):
        # S is the orthogonal projector onto the tangent space of the
        # ball's face at the solution, which is orthogonal to P.T lam.
        res = project_ball(inst)
        assume(not res.trivial)
        s = ball_jacobian(inst, res.report)
        S = ball_dense(s)
        assert np.max(np.abs(S - S.T)) <= 1e-12
        assert np.max(np.abs(S @ S - S)) <= 1e-12
        lam = inst.weights.values
        normal = res.report.sort.apply_inverse(lam)
        assert np.max(np.abs(apply_ball_jacobian(s, normal))) <= 1e-12 * np.linalg.norm(lam)

    @pytest.mark.parametrize("shape", [(3, 1), (1, 3), (4,), (2,), ()], ids=str)
    def test_apply_rejects_wrong_shape(self, shape):
        # A (3, 1) column used to fail inside numpy ("object too deep for
        # desired array"); every shape but (n,) is refused by name.
        inst = Instance([3.0, 2.0, 1.0], Weights([1.0, 1.0, 1.0]), 3.0)
        s = ball_jacobian(inst, project_ball(inst).report)
        with pytest.raises(ValueError, match="expected shape"):
            apply_ball_jacobian(s, np.ones(shape))

    def test_table_is_the_cone_table_relabelled(self):
        # The ball operator holds the bins of H read off the cone
        # projection's blocks and the signs of b, in original
        # coordinates, and the signed value of u on each bin.
        rng = np.random.default_rng(40)
        checked = singles = 0
        # ball_jacobian gathers the singletons' weights at their sorted
        # positions when 4 * singles <= n, and scatters all of the signed
        # weights when there are more: both routes must run.
        routes = dict(gathered=0, scattered=0)
        for k in range(300):
            inst = self.random_instance(rng, k)
            res = project_ball(inst)
            if res.trivial:
                continue
            s = ball_jacobian(inst, res.report)
            cone, sort = res.report.cone, res.report.sort
            label, inv_sizes = cone_table(cone, sort)
            assert s.label.dtype == label.dtype
            assert np.array_equal(s.label, label)
            assert np.array_equal(s.inv_sizes, inv_sizes)
            hb = cone_hb(cone, sort, inst.weights.values)
            assert s.hb.shape == hb.shape
            assert np.max(np.abs(s.hb - hb)) <= 4 * EPS
            # hb[label] is P.T u, u = H lam / ||H lam||.
            hlam = apply_cone_jacobian(cone, inst.weights.values)
            unit = sort.apply_inverse(hlam / np.linalg.norm(hlam))
            assert np.max(np.abs(s.hb[s.label] - unit)) <= 4 * EPS
            found = hb.size - 2 * inv_sizes.size - 2
            if found:
                routes["gathered" if 4 * found <= inst.n else "scattered"] += 1
            singles += found
            checked += 1
        assert checked >= 200 and singles >= 1000
        assert min(routes.values()) >= 20, routes

    def test_holds_only_label_per_coordinate(self):
        inst = Instance([1.0, -2.0, 3.0, 3.0, 0.5], Weights([3.0, 2.0, 2.0, 1.0, 0.5]), 3.0)
        s = ball_jacobian(inst, project_ball(inst).report)
        assert [f.name for f in fields(BallJacobian)] == ["label", "inv_sizes", "hb"]
        # One pooled block, of 3.0 and 3.0; singletons at -2.0, 1.0, 0.5.
        assert s.label.shape == (inst.n,)
        assert s.inv_sizes.shape == (1,)
        assert s.hb.shape == (int(s.label.max()) + 1,) == (2 + 2 + 3,)

    def test_rejects_bare_solver_report(self):
        rng = np.random.default_rng(38)
        n = 12
        b = rng.standard_normal(n)
        w = Weights(np.sort(np.abs(rng.standard_normal(n)))[::-1])
        inst = Instance(b, w, 0.4 * owl_norm(b, w))
        _, sorted_b = signed_sort(b)
        bare = solve(sorted_b, w, inst.tau)
        assert bare.converged and bare.sort is None
        with pytest.raises(ValueError, match="no sort"):
            ball_jacobian(inst, bare)

    def test_reuses_sort_and_projection_of_the_report(self):
        # ball_jacobian reads the sort and the cone projection off the
        # report and recomputes neither: a report carrying another
        # permutation of the instance's b, or another projection of the
        # same length, gives the bins of those.
        rng = np.random.default_rng(39)
        b = rng.standard_normal(30)
        w = Weights(np.sort(np.abs(rng.standard_normal(30)))[::-1])
        inst = Instance(b, w, 0.3 * owl_norm(b, w))
        report = project_ball(inst).report
        other = SignedSort(rng.permutation(30), inst.b)
        cone = project_cone(np.concatenate(([5.0] * 4, [4.5, 4.2], [3.0] * 4,
                                            [2.9, 2.8, 2.7], [2.0] * 5,
                                            [1.9, 1.5, 1.2], [-1.0] * 9)))
        s = ball_jacobian(inst, replace(report, sort=other, cone=cone))
        label, inv_sizes = cone_table(cone, other)
        assert inv_sizes.tolist() == [0.25, 0.25, 0.2]
        assert np.sum((s.label == 6) | (s.label == 7)) == 9     # the zero tail
        assert s.hb.size == 6 + 2 + 8
        assert np.array_equal(s.label, label)
        assert np.array_equal(s.inv_sizes, inv_sizes)
        assert np.max(np.abs(s.hb - cone_hb(cone, other, w.values))) <= 4 * EPS
        # The report's own cone carries its sums of lam, which the
        # Jacobian reads; the same x with no sums gives the same bins
        # from direct sums.
        assert report.cone.lam_sums is not None
        s = ball_jacobian(inst, report)
        bare = ball_jacobian(inst, replace(report, cone=ConeProjection(report.x_star.copy())))
        assert s.label.tobytes() == bare.label.tobytes()
        assert s.inv_sizes.tobytes() == bare.inv_sizes.tobytes()
        assert np.max(np.abs(s.hb - bare.hb)) <= 4 * EPS

    def test_rejects_the_missing_report_of_a_feasible_input(self):
        inst = Instance([3.0, 2.0, 1.0], Weights([1.0, 1.0, 1.0]), 10.0)
        res = project_ball(inst)
        assert res.trivial
        with pytest.raises(ValueError, match="inside the ball"):
            ball_jacobian(inst, res.report)

    def test_rejects_report_of_another_instance(self):
        # Of equal length, the report of another instance would give the
        # Jacobian at another point; its sort holds the other b.
        rng = np.random.default_rng(40)
        w = Weights([3.0, 2.0, 2.0, 1.0, 0.5, 0.5])
        inst1, inst2 = (Instance(b, w, 0.4 * owl_norm(b, w))
                        for b in rng.standard_normal((2, 6)))
        with pytest.raises(ValueError, match="another instance"):
            ball_jacobian(inst2, project_ball(inst1).report)
        with pytest.raises(ValueError, match="another instance"):
            ball_jacobian(Instance(inst1.b, w, inst1.tau), project_ball(inst1).report)

    def test_rejects_report_of_another_length(self):
        inst = Instance([3.0, 2.0, 1.0], Weights([1.0, 1.0, 1.0]), 3.0)
        other = Instance([3.0, 2.0], Weights([1.0, 1.0]), 4.0)
        report = project_ball(inst).report
        other_report = project_ball(other).report
        with pytest.raises(ValueError):
            ball_jacobian(other, report)
        with pytest.raises(ValueError):
            ball_jacobian(inst, replace(report, sort=other_report.sort))
        with pytest.raises(ValueError):
            ball_jacobian(inst, replace(report, cone=other_report.cone))
