import math
from dataclasses import replace

import numpy as np
import pytest

from owlball import (
    BallJacobian,
    Instance,
    Weights,
    apply_ball_jacobian,
    apply_cone_jacobian,
    ball_jacobian,
    cone_jacobian,
    owl_norm,
    project_ball,
    project_cone,
    ssn_solve,
)
from owlball.core import SignedSort, signed_sort
from owlball.isotonic import active_set
from owlball.jacobian import ConeJacobian
from owlball.oracle import (
    DENSE_CAP,
    dense_cone_jacobian,
    difference_matrix,
    tight_set_blocks,
)
from owlball.ssn import block_curvature

EPS = float(np.finfo(np.float64).eps)


def implicit_dense(h: ConeJacobian) -> np.ndarray:
    """Materialize the implicit operator column by column."""
    return np.column_stack([apply_cone_jacobian(h, e) for e in np.eye(h.n)])


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
        h = cone_jacobian(project_cone(np.array([5.0, 3.0, 1.0])))
        v = np.array([1.0, -2.0, 7.0])
        assert np.array_equal(apply_cone_jacobian(h, v), v)

    def test_zero_when_projection_is_zero(self):
        h = cone_jacobian(project_cone(np.array([-1.0, -2.0, 3.0])))
        assert np.array_equal(apply_cone_jacobian(h, np.ones(3)), np.zeros(3))

    def test_pooled_example(self):
        h = cone_jacobian(project_cone(np.array([1.0, 3.0, 2.0])))
        got = apply_cone_jacobian(h, np.array([3.0, 0.0, 0.0]))
        assert np.allclose(got, np.ones(3), atol=1e-15)
        assert np.allclose(implicit_dense(h), np.full((3, 3), 1.0 / 3.0),
                           atol=1e-15)

    def test_matches_dense_on_random_tight_sets(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            n = int(rng.integers(2, 51))
            gamma = random_tight_set(rng, n)
            h = ConeJacobian(*tight_set_blocks(gamma, n), n)
            Hd = dense_cone_jacobian(gamma, n)
            v = rng.standard_normal(n)
            assert np.max(np.abs(apply_cone_jacobian(h, v) - Hd @ v)) <= 1e-12
            Hi = implicit_dense(h)
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
        out = apply_cone_jacobian(cone_jacobian(p), v)
        pooled = [(s, e) for s, e, _ in p.blocks if e - s > 1]
        assert pooled == [(1000, 1002)]
        mean = math.fsum(v[1000:1002]) / 2
        assert np.all(np.abs(out[1000:1002] - mean) <= 4 * EPS * mean)

    def test_apply_rejects_wrong_length(self):
        h = cone_jacobian(project_cone(np.array([1.0, 3.0, 2.0])))
        with pytest.raises(ValueError):
            apply_cone_jacobian(h, np.ones(4))

    def test_tight_set_blocks_validates_indices(self):
        with pytest.raises(ValueError):
            tight_set_blocks([5], 3)
        with pytest.raises(ValueError):
            tight_set_blocks([-1], 3)

    def test_tight_set_route_matches_projection_blocks(self):
        # The two routes to a ConeJacobian: the blocks of a canonical
        # projection, and the block form of its maximal tight set.
        rng = np.random.default_rng(36)
        zero = zero_tail = 0
        for k in range(600):
            n = int(rng.integers(1, 41))
            d = rng.standard_normal(n) + (0.0, 0.5, -0.5)[k % 3]
            if k % 7 == 0:
                d = np.round(d, 1)      # tied runs pool into blocks
            p = project_cone(d)
            starts, tail = tight_set_blocks(active_set(p), n)
            assert np.array_equal(starts, p.block_starts)
            assert tail == (p.block_values[-1] == 0.0)
            zero += not p.x.any()
            zero_tail += bool(tail) and bool(p.x.any())
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
                    h = cone_jacobian(pp)
                    defect = pp.x - p.x - apply_cone_jacobian(h, dp - d)
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


def dense_ball_reference(inst: Instance, cone) -> np.ndarray:
    """``P.T (H - u u.T) P`` from the dense cone Jacobian of ``cone``."""
    n = inst.n
    sort, _ = signed_sort(inst.b)
    P = np.zeros((n, n))
    P[np.arange(n), sort.perm] = sort.signs
    H = dense_cone_jacobian(active_set(cone), n)
    hlam = H @ inst.weights.values
    u = hlam / np.linalg.norm(hlam)
    return P.T @ (H - np.outer(u, u)) @ P


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
            zero_tail = cone.block_values[-1] == 0.0
            live = lengths[:cone.num_blocks - int(zero_tail)]
            seen["ties"] += np.unique(mags).size < inst.n
            seen["zeros"] += bool(np.any(mags == 0.0))
            seen["zero_tail"] += bool(zero_tail)
            seen["all_singleton"] += bool(np.all(lengths == 1))
            seen["one_pooled"] += int(np.sum(live > 1)) == 1
        assert min(seen.values()) >= 20, seen

    def test_table_is_the_cone_table_relabelled(self):
        # One table for H: the ball operator holds cone_jacobian's table
        # with sorted position k's entries moved to coordinate perm[k].
        rng = np.random.default_rng(40)
        checked = 0
        for k in range(300):
            inst = self.random_instance(rng, k)
            res = project_ball(inst)
            if res.trivial:
                continue
            table = ball_jacobian(inst, res.report).table
            h = cone_jacobian(res.report.cone)
            perm = res.report.sort.perm
            for name in ("label", "keep"):
                moved = np.empty_like(getattr(h, name))
                moved[perm] = getattr(h, name)
                got = getattr(table, name)
                assert got.dtype == moved.dtype
                assert np.array_equal(got, moved)
            assert np.array_equal(table.inv_sizes, h.inv_sizes)
            checked += 1
        assert checked >= 200

    def test_rejects_bare_solver_report(self):
        rng = np.random.default_rng(38)
        n = 12
        b = rng.standard_normal(n)
        w = Weights(np.sort(np.abs(rng.standard_normal(n)))[::-1])
        inst = Instance(b, w, 0.4 * owl_norm(b, w))
        _, sorted_b = signed_sort(b)
        bare = ssn_solve(sorted_b, w, inst.tau)
        assert bare.converged and bare.sort is None
        with pytest.raises(ValueError, match="no sort"):
            ball_jacobian(inst, bare)

    def test_reuses_sort_and_projection_of_the_report(self):
        # ball_jacobian reads the sort and the cone projection off the
        # report and recomputes neither: a report carrying another
        # signed sort or projection of the same length gives the table
        # of those.
        rng = np.random.default_rng(39)
        b = rng.standard_normal(30)
        w = Weights(np.sort(np.abs(rng.standard_normal(30)))[::-1])
        inst = Instance(b, w, 0.3 * owl_norm(b, w))
        report = project_ball(inst).report
        other = SignedSort(rng.permutation(30), rng.choice([-1.0, 1.0], 30))
        cone = project_cone(np.repeat([3.0, 1.0, 2.0, -1.0, 0.5], 6))
        s = ball_jacobian(inst, replace(report, sort=other, cone=cone))
        h = cone_jacobian(cone)
        moved = np.empty_like(h.label)
        moved[other.perm] = h.label
        assert np.array_equal(s.table.label, moved)
        assert np.array_equal(s.table.inv_sizes, h.inv_sizes)

    def test_rejects_the_missing_report_of_a_feasible_input(self):
        inst = Instance([3.0, 2.0, 1.0], Weights([1.0, 1.0, 1.0]), 10.0)
        res = project_ball(inst)
        assert res.trivial
        with pytest.raises(ValueError, match="inside the ball"):
            ball_jacobian(inst, res.report)

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
