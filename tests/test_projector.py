import zlib

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import owlball.isotonic as isotonic_mod
from owlball import (
    Instance,
    SsnParams,
    Weights,
    owl_norm,
    project_ball,
    project_cone,
    prox_owl,
)
from owlball.core import INSIDE_RTOL, signed_sort
from owlball.oracle import oracle_ball
from owlball.rootfind import dual_norm, solve_root


def random_instance(rng, n, sigma=1.0, beta=None):
    b = sigma * rng.standard_normal(n)
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    w = Weights(lam)
    if beta is None:
        beta = float(rng.uniform(0.05, 0.95))
    return Instance(b, w, beta * owl_norm(b, w))


class TestProjectBall:
    def test_inside_ball_returns_input(self):
        inst = Instance([1.0, 0.0], Weights([1.0, 1.0]), 2.0)
        res = project_ball(inst)
        assert res.trivial
        assert res.report is None
        assert np.array_equal(res.x, inst.b)
        assert res.x is not inst.b  # caller owns the result

    def test_sign_is_restored(self):
        inst = Instance([-3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        res = project_ball(inst)
        assert not res.trivial
        assert np.allclose(res.x, [-2.0, 0.0], atol=1e-12)

    def test_linf_ball_with_trailing_zero_weight(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 0.0]), 2.0)
        res = project_ball(inst)
        assert np.allclose(res.x, [2.0, 1.0], atol=1e-12)

    def test_gate_sliver_is_trivial(self):
        # Norm above tau by less than the gate slack: treated as inside,
        # the solver is never launched.
        b = np.array([2.0, 0.0])
        w = Weights([1.0, 1.0])
        kappa = owl_norm(b, w)
        res = project_ball(Instance(b, w, kappa / (1.0 + 5e-16)))
        assert res.trivial
        assert np.array_equal(res.x, b)

    def test_just_outside_gate_solves_to_boundary(self):
        rng = np.random.default_rng(61)
        for _ in range(10):
            inst = random_instance(rng, int(rng.integers(2, 12)))
            kappa = owl_norm(inst.b, inst.weights)
            tight = Instance(inst.b, inst.weights, kappa * (1.0 - 1e-12))
            res = project_ball(tight)
            assert not res.trivial
            assert res.report.converged
            assert owl_norm(res.x, inst.weights) == pytest.approx(
                tight.tau, rel=1e-10)

    def test_boundary_norm_when_nontrivial(self):
        rng = np.random.default_rng(62)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(2, 60)),
                                   sigma=float(rng.choice([1e-3, 1.0, 1e3])))
            res = project_ball(inst)
            assert not res.trivial
            assert owl_norm(res.x, inst.weights) == pytest.approx(
                inst.tau, rel=1e-10)

    def test_result_never_leaves_ball(self):
        rng = np.random.default_rng(63)
        for _ in range(100):
            inst = random_instance(rng, int(rng.integers(1, 40)))
            res = project_ball(inst)
            assert owl_norm(res.x, inst.weights) <= inst.tau * (1.0 + 1e-12)

    def test_sign_permutation_equivariance(self):
        rng = np.random.default_rng(64)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            inst = random_instance(rng, n)
            x = project_ball(inst).x
            perm = rng.permutation(n)
            flip = rng.choice([-1.0, 1.0], size=n)
            qb = flip * inst.b[perm]
            qx = project_ball(Instance(qb, inst.weights, inst.tau)).x
            assert np.max(np.abs(qx - flip * x[perm])) <= 1e-12 * (
                1.0 + np.max(np.abs(x)))

    def test_sorted_cone_input_stays_sorted(self):
        rng = np.random.default_rng(65)
        for _ in range(50):
            n = int(rng.integers(2, 30))
            inst = random_instance(rng, n)
            _, w = signed_sort(inst.b)
            sorted_inst = Instance(w, inst.weights, inst.tau)
            x = project_ball(sorted_inst).x
            assert np.all(np.diff(x) <= 0.0)
            assert x.min() >= 0.0
            assert float(np.dot(x, inst.weights.values)) == pytest.approx(
                inst.tau, rel=1e-10)

    def test_variational_inequality(self):
        rng = np.random.default_rng(66)
        for _ in range(20):
            n = int(rng.integers(2, 30))
            inst = random_instance(rng, n)
            x = project_ball(inst).x
            for _ in range(50):
                g = rng.standard_normal(n)
                kg = owl_norm(g, inst.weights)
                z = g * (float(rng.uniform(0.0, 1.0)) * inst.tau / kg)
                assert float(np.dot(inst.b - x, z - x)) <= 1e-10 * (
                    1.0 + float(np.dot(inst.b, inst.b)))

    def test_idempotence(self):
        rng = np.random.default_rng(67)
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(1, 40)))
            x = project_ball(inst).x
            again = project_ball(Instance(x, inst.weights, inst.tau)).x
            assert np.max(np.abs(again - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(68)
        betas = (1e-3, 1e-2, 1e-1, 0.5, 0.8)
        for k in range(200):
            n = int(rng.integers(2, 11))
            inst = random_instance(rng, n, beta=betas[k % len(betas)])
            got = project_ball(inst).x
            want = oracle_ball(inst)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_propagates_solver_report(self):
        rng = np.random.default_rng(69)
        inst = random_instance(rng, 20, beta=0.3)
        res = project_ball(inst, SsnParams(max_iter=1, eps=1e-15))
        assert not res.report.converged

    def test_report_carries_sort_and_final_projection(self):
        # The report's cone projection is the one at y_star, bit for bit,
        # and its sort is the signed sort of b: ball_jacobian reuses both.
        rng = np.random.default_rng(70)
        for k in range(60):
            inst = random_instance(rng, int(rng.integers(1, 60)))
            if k % 3 == 0:
                inst = Instance(np.round(inst.b, 1), inst.weights, inst.tau)
            res = project_ball(inst)
            if res.trivial:
                continue
            report = res.report
            assert report.x_star is report.cone.x
            sort, w = signed_sort(inst.b)
            assert np.array_equal(report.sort.perm, sort.perm)
            assert np.array_equal(report.sort.signs, sort.signs)
            p = project_cone(report.y_star * inst.weights.values + w)
            assert np.array_equal(report.cone.x, p.x)
            assert np.array_equal(report.cone.block_starts, p.block_starts)
            assert np.array_equal(report.cone.block_values, p.block_values)

    def test_tied_million_instance_converges_in_few_steps(self):
        # Gaussian b rounded to 2 decimals at n = 1e6, radius 0.8 of its
        # norm (seed 3, rep 2 of the benchmark's ties-1e6 recipe, rebuilt
        # here).  A sufficient-decrease line search on phi once stalled
        # here for 100 iterations: near the root the decrease of phi fell
        # below the roundoff of evaluating it, so good Newton steps were
        # rejected.  The Newton iteration on phi' never evaluates phi and
        # never rejects a step.
        n = 1_000_000
        seq = np.random.SeedSequence(3, spawn_key=(zlib.crc32(b"ties-1e6"), 2))
        rng = np.random.Generator(np.random.Philox(seq))
        b = np.round(rng.standard_normal(n), 2)
        weights = Weights(np.sort(np.abs(rng.standard_normal(n)))[::-1])
        tau = 0.8 * float(np.dot(np.sort(np.abs(b))[::-1], weights.values))
        res = project_ball(Instance(b, weights, tau))
        assert res.report.converged
        assert res.report.iterations <= 4
        assert abs(owl_norm(res.x, weights) / tau - 1.0) <= 1e-12


# The benchmark's radius fractions, tau = beta * owl_norm(b).
BENCH_BETAS = (0.01, 0.1, 0.8)


def family_weights(family: str, n: int, rng) -> Weights:
    lam = np.zeros(n)
    if family == "L1":
        lam[:] = 1.0
    elif family == "Linf":
        lam[0] = 1.0
    elif family == "top half":
        lam[: n // 2] = 1.0
    else:
        lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    return Weights(lam)


class TestModelStart:
    """The model start of plateau weights (see ``owlball.ssn``)."""

    # Newton iterations allowed per weight family.  The model start is
    # exact for L1 and Linf, where the one step allowed is the step from
    # a start that roundoff put just below the root.
    MAX_ITERATIONS = {"L1": 1, "Linf": 1, "top half": 4, "gauss": 4}

    @pytest.mark.parametrize("n", [1_000, 10_000, 100_000])
    @pytest.mark.parametrize("family", list(MAX_ITERATIONS))
    def test_iterations_per_weight_family(self, family, n):
        rng = np.random.default_rng(zlib.crc32(f"{family} {n}".encode()))
        weights = family_weights(family, n, rng)
        assert (weights.plateau is None) == (family == "gauss")
        for beta in BENCH_BETAS:
            b = rng.standard_normal(n)
            tau = beta * owl_norm(b, weights)
            res = project_ball(Instance(b, weights, tau))
            assert res.report.converged
            assert res.report.iterations <= self.MAX_ITERATIONS[family]
            assert abs(owl_norm(res.x, weights) / tau - 1.0) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(n=st.one_of(st.integers(1, 10), st.integers(11, 300)),
           k_pick=st.sampled_from(["1", "n", "any"]), k_frac=st.floats(0.0, 1.0),
           lam0=st.sampled_from([1.0, 0.3, 2.5]),
           ties=st.sampled_from(["none", "rounded", "all"]),
           power=st.sampled_from([-500, -37, 0, 61, 500]),
           beta=st.floats(0.01, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_plateau_start_lies_in_the_bracket(self, n, k_pick, k_frac, lam0, ties,
                                               power, beta, seed):
        # y* <= y_start <= 0 up to roundoff, at every plateau length and
        # at scales 2**-500 to 2**500; the oracle checks the answer at the
        # unit scale (the projection is positively homogeneous, and a
        # power of two scales it exactly).
        rng = np.random.default_rng(seed)
        k = {"1": 1, "n": n, "any": 1 + int(k_frac * (n - 1))}[k_pick]
        weights = Weights(np.where(np.arange(n) < k, lam0, 0.0))
        assert weights.plateau == k
        b = rng.standard_normal(n)
        if ties == "rounded":
            b = np.round(b, 1)
        elif ties == "all":
            b = np.where(b < 0.0, -0.7, 0.7)
        unit_tau = beta * owl_norm(b, weights)
        assume(unit_tau > 0.0)
        scale = 2.0 ** power
        inst = Instance(scale * b, weights, scale * unit_tau)
        res = project_ball(inst)
        assume(not res.trivial)
        report = res.report
        assert report.converged
        assert report.y_star * (1.0 + 1e-12) <= report.y_start <= 0.0
        assert abs(owl_norm(res.x, weights) / inst.tau - 1.0) <= 1e-12
        if n <= 10:
            want = oracle_ball(Instance(b, weights, unit_tau))
            assert np.max(np.abs(res.x / scale - want)) <= 1e-8


class TestTrivialGate:
    """The feasibility gate of ``project_ball``, seen through ``trivial``."""

    def test_strictly_inside(self):
        assert project_ball(Instance([1.0, 0.0], Weights([1.0, 1.0]), 2.0)).trivial

    def test_strictly_outside(self):
        assert not project_ball(Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)).trivial

    def test_boundary_counts_as_inside(self):
        # The ball is closed: norm exactly tau is feasible.
        assert project_ball(Instance([2.0, 0.0], Weights([1.0, 1.0]), 2.0)).trivial

    def test_gate_has_relative_slack(self):
        # Norm within tau*(1 + INSIDE_RTOL) still counts as inside, so a
        # roundoff-level overshoot never launches the solver.
        b = np.array([2.0, 0.0])
        w = Weights([1.0, 1.0])
        kappa = owl_norm(b, w)
        assert project_ball(Instance(b, w, kappa / (1.0 + 0.5 * INSIDE_RTOL))).trivial
        assert not project_ball(
            Instance(b, w, kappa / (1.0 + 10.0 * INSIDE_RTOL))).trivial


class TestProxOwl:
    def test_mu_zero_is_identity(self):
        v = np.array([3.0, -1.0])
        out = prox_owl(v, Weights([1.0, 1.0]), 0.0)
        assert np.array_equal(out, v)
        assert out is not v

    def test_negative_mu_rejected(self):
        for mu in (-0.5, np.inf, np.nan):
            with pytest.raises(ValueError):
                prox_owl(np.array([3.0, 1.0]), Weights([1.0, 1.0]), mu)
        with pytest.raises(ValueError):
            prox_owl(np.array([3.0, 1.0]), Weights([1.0, 0.0]), np.inf)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_v_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            prox_owl(np.array([3.0, bad, -1.0, 0.5]), Weights(np.ones(4)), 0.2)

    def test_soft_threshold_specialization(self):
        out = prox_owl(np.array([3.0, 1.0]), Weights([1.0, 1.0]), 1.0)
        assert np.array_equal(out, [2.0, 0.0])
        # matches elementwise soft-thresholding for the all-ones weights
        rng = np.random.default_rng(71)
        for _ in range(50):
            v = rng.standard_normal(8)
            mu = float(rng.uniform(0.0, 2.0))
            got = prox_owl(v, Weights(np.ones(8)), mu)
            want = np.sign(v) * np.maximum(np.abs(v) - mu, 0.0)
            assert np.max(np.abs(got - want)) <= 1e-12

    def test_collapses_at_dual_norm(self):
        rng = np.random.default_rng(72)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            v = rng.standard_normal(n)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.01
            w = Weights(lam)
            mu = dual_norm(v, w)
            assert np.max(np.abs(prox_owl(v, w, mu))) <= 1e-12
            assert np.max(np.abs(prox_owl(v, w, mu * 1.5))) == 0.0


def test_l1_weights_never_run_pava(monkeypatch):
    # With constant weights every point the solvers and the prox project
    # is the sorted magnitudes shifted by a constant, so nonincreasing:
    # no PAVA pass at all.  Rounded b gives tied magnitudes.
    def pava(*args, **kwargs):
        raise AssertionError("isotonic_regression called on L1 weights")

    monkeypatch.setattr(isotonic_mod, "isotonic_regression", pava)
    rng = np.random.default_rng(97)
    for k in range(60):
        n = int(rng.integers(1, 300))
        b = rng.standard_normal(n)
        if k % 2:
            b = np.round(b, 1)
        weights = Weights(np.full(n, (1.0, 0.3)[k % 3 // 2]))
        inst = Instance(b, weights, float(rng.uniform(0.05, 0.95)) * owl_norm(b, weights))
        result = project_ball(inst, SsnParams(y0=(0.0, -0.5)[k % 2]))
        assert result.report is None or result.report.converged
        if not result.trivial:
            solve_root(inst)
        prox_owl(b, weights, float(rng.uniform(0.0, 2.0)))
