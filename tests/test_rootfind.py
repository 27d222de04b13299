import gc

import numpy as np
import pytest

from owlball import Instance, Weights, owl_norm, project_ball, prox_owl
from owlball import rootfind as rootfind_mod
from owlball import ssn as ssn_mod
from owlball.bench import cell_rng, generate_instance
from owlball.core import signed_sort, sorted_dual_norm
from owlball.isotonic import ConeProjection
from owlball.rootfind import dual_norm, solve_root

from oracle import oracle_dual_norm


def random_instance(rng, n, sigma=1.0, beta=None):
    b = sigma * rng.standard_normal(n)
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    w = Weights(lam)
    if beta is None:
        beta = float(rng.uniform(0.05, 0.95))
    return Instance(b, w, beta * owl_norm(b, w))


class TestDualNorm:
    def test_l1_weights_give_linf(self):
        rng = np.random.default_rng(81)
        w = Weights(np.ones(7))
        for _ in range(50):
            y = rng.standard_normal(7)
            assert dual_norm(y, w) == pytest.approx(np.max(np.abs(y)), rel=1e-14)

    def test_linf_weights_give_l1(self):
        rng = np.random.default_rng(82)
        w = Weights([1.0, 0.0, 0.0, 0.0, 0.0])
        for _ in range(50):
            y = rng.standard_normal(5)
            assert dual_norm(y, w) == pytest.approx(np.sum(np.abs(y)), rel=1e-14)

    def test_matches_support_function_oracle(self):
        rng = np.random.default_rng(83)
        for _ in range(100):
            n = int(rng.integers(1, 7))
            y = rng.standard_normal(n)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.01
            w = Weights(lam)
            assert dual_norm(y, w) == pytest.approx(
                oracle_dual_norm(y, w), rel=1e-12, abs=1e-12)


class TestSolveRoot:
    def test_hand_example(self):
        report = solve_root(Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0))
        assert report.mu_star == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(report.x - [2.0, 0.0])) <= 1e-8
        assert report.residual <= 1e-9
        assert report.evaluations >= 2
        assert report.stop == "residual" and report.converged

    def test_prox_at_mu_star_reproduces_x(self):
        # The default tol stops on the residual, and 1e-15 on an exact
        # root of this instance.  1e-300 is below any residual the second
        # instance reaches, so that solve ends by the bracket's collapse,
        # which is reported and not counted as converged.
        for seed, tol in ((84, 1e-9), (84, 1e-15), (85, 1e-300)):
            inst = random_instance(np.random.default_rng(seed), 40, beta=0.4)
            report = solve_root(inst, tol=tol)
            assert np.array_equal(prox_owl(inst.b, inst.weights, report.mu_star),
                                  report.x)
        assert report.residual > tol
        assert report.stop == "collapse" and not report.converged

    def test_collapse_on_an_unresolvable_radius_is_reported(self):
        # The radius 1e-300 sits far below the resolution of t = mu / 1e300,
        # so the bracket collapses with the radius missed by far (the
        # answer is about [1e-300, 0, 0]).  The best point evaluated is
        # still reported, with its residual.
        inst = Instance([1e300, 1e-300, -1e-300], Weights([1.0, 0.5, 0.25]), 1e-300)
        report = solve_root(inst)
        assert report.stop == "collapse" and not report.converged
        assert report.residual == np.inf
        assert report.residual == abs(owl_norm(report.x, inst.weights) - inst.tau) / inst.tau

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-100, 1e-20, 1e-10,
                                       1.0, 1e10, 1e100, 1e200, 1e300])
    def test_both_solvers_meet_the_radius_at_every_scale(self, scale):
        # Both stop rules are relative to tau, and brentq runs on
        # t = mu / dual_norm with phi' / tau, so scaling b and tau alike
        # changes neither the radius match nor the work done.
        inst = generate_instance(1000, 1.0, 0.1, cell_rng(0, 0, 0, 0, 0))
        scaled = Instance(inst.b * scale, inst.weights, inst.tau * scale)
        res = project_ball(scaled)
        rf = solve_root(scaled, tol=1e-12)
        assert res.report.converged
        for x in (res.x, rf.x):
            assert abs(owl_norm(x, inst.weights) / scaled.tau - 1.0) <= 1e-12
        assert res.report.iterations == project_ball(inst).report.iterations
        assert rf.evaluations == solve_root(inst, tol=1e-12).evaluations

    def test_projects_only_ahead_of_the_zero_tail(self, monkeypatch):
        # Each evaluation projects only ahead of the zero block at the
        # last point with a positive gap; the answer and the evaluations
        # are those of full-length projections, bit for bit.
        rng = np.random.default_rng(92)
        cases = [random_instance(rng, int(rng.integers(2, 300))) for _ in range(40)]
        for k in range(0, len(cases), 3):      # weights with trailing zeros
            lam = cases[k].weights.values.copy()
            lam[lam.size // 2:] = 0.0
            cases[k] = Instance(cases[k].b, lam, 0.5 * owl_norm(cases[k].b, lam))
        lengths = []
        inner_cone = ssn_mod.project_cone
        monkeypatch.setattr(ssn_mod, "project_cone",
                            lambda d, n=None: lengths.append(len(d) < n) or inner_cone(d, n))
        fast = [solve_root(inst, tol=1e-12) for inst in cases]
        assert sum(lengths) >= 20
        inner = rootfind_mod.dual_gradient
        monkeypatch.setattr(rootfind_mod, "dual_gradient",
                            lambda y, w, weights, tau, top=None: inner(y, w, weights, tau))
        for inst, report in zip(cases, fast):
            slow = solve_root(inst, tol=1e-12)
            assert report.evaluations == slow.evaluations
            assert report.mu_star == slow.mu_star
            assert report.x.tobytes() == slow.x.tobytes()

    def test_dual_norm_endpoint_costs_no_projection(self, monkeypatch):
        # The prox at t = 1 is zero, so every evaluation but that one
        # projects, and brentq still counts it.  The Linf cases have a
        # dual norm, sum(|b|), whose prefix sums round well above tol * tau.
        rng = np.random.default_rng(93)
        cases = [random_instance(rng, int(rng.integers(1, 300))) for _ in range(20)]
        for n in (10, 10, 10_000, 10_000, 10_000, 10_000):
            b = rng.standard_normal(n)
            linf = Weights(np.eye(1, n)[0])
            cases.append(Instance(b, linf, 0.01 * owl_norm(b, linf)))
        calls = []
        inner = rootfind_mod.dual_gradient
        monkeypatch.setattr(rootfind_mod, "dual_gradient",
                            lambda *args: calls.append(args[0]) or inner(*args))
        for inst in cases:
            calls.clear()
            report = solve_root(inst, tol=1e-12)
            assert len(calls) == report.evaluations - 1
            assert -sorted_dual_norm(signed_sort(inst.b)[1], inst.weights.values) not in calls
            assert abs(owl_norm(report.x, inst.weights) / inst.tau - 1.0) <= 1e-12

    def test_feasible_instance_rejected(self):
        with pytest.raises(ValueError):
            solve_root(Instance([1.0, 0.0], Weights([1.0, 1.0]), 2.0))

    def test_bad_tol_rejected(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        with pytest.raises(ValueError):
            solve_root(inst, tol=0.0)
        with pytest.raises(ValueError):
            solve_root(inst, tol=-1e-9)
        with pytest.raises(ValueError):
            solve_root(inst, tol=np.inf)
        with pytest.raises(ValueError):
            solve_root(inst, tol=np.nan)

    def test_radius_curve_is_nonincreasing(self):
        rng = np.random.default_rng(85)
        for _ in range(20):
            inst = random_instance(rng, int(rng.integers(2, 30)))
            hi = dual_norm(inst.b, inst.weights)
            mus = np.linspace(0.0, hi, 100)
            rhos = [owl_norm(prox_owl(inst.b, inst.weights, float(m)),
                             inst.weights) for m in mus]
            assert np.all(np.diff(rhos) <= 1e-10 * (1.0 + rhos[0]))

    def test_reported_invariants(self):
        rng = np.random.default_rng(86)
        tol = 1e-9
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(2, 200)))
            report = solve_root(inst, tol=tol)
            hi = dual_norm(inst.b, inst.weights)
            assert 0.0 <= report.mu_star <= hi
            assert report.residual <= tol
            # recompute the residual from scratch
            rho = owl_norm(report.x, inst.weights)
            assert abs(rho - inst.tau) / (1.0 + inst.tau) <= tol

    def test_agrees_with_newton_path(self):
        rng = np.random.default_rng(87)
        tol = 1e-9
        for _ in range(50):
            inst = random_instance(rng, int(rng.integers(2, 50)))
            rf = solve_root(inst, tol=tol)
            ssn = project_ball(inst)
            bound = 10.0 * tol * (1.0 + np.max(np.abs(inst.b)))
            assert np.max(np.abs(rf.x - ssn.x)) <= bound

    def test_uses_more_evaluations_than_newton_iterations(self):
        # The mechanism behind the benchmark gap: each bracket evaluation
        # costs one cone projection, and there are reliably more of them
        # than Newton iterations.
        rng = np.random.default_rng(88)
        wins = 0
        total = 60
        for _ in range(total):
            inst = random_instance(rng, int(rng.integers(10, 300)))
            rf = solve_root(inst, tol=1e-12)
            ssn = project_ball(inst)
            if rf.evaluations > ssn.report.iterations:
                wins += 1
        assert wins >= 0.9 * total

    def test_leaves_no_projection_to_the_cycle_collector(self):
        # scipy's brentq keeps its function in a reference cycle; nothing
        # n-sized may hang off it, or the projections of every solve pile
        # up until the next collection.
        inst = random_instance(np.random.default_rng(91), 50, beta=0.3)
        enabled = gc.isenabled()
        gc.disable()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            solve_root(inst)
            gc.collect()
            kept = [o for o in gc.garbage if isinstance(o, (ConeProjection, np.ndarray))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            if enabled:
                gc.enable()
        assert kept == []

    def test_eval_budget_exhaustion_is_reported(self, monkeypatch):
        # Four evaluations cannot meet tol = 1e-15 here; the report says
        # so and holds the best point evaluated, whose prox it is.
        rng = np.random.default_rng(89)
        inst = random_instance(rng, 50, beta=0.37)
        monkeypatch.setattr(rootfind_mod, "_MAX_EVALS", 4)
        report = solve_root(inst, tol=1e-15)
        assert report.stop == "cap" and not report.converged
        assert report.evaluations == 4
        assert 1e-15 < report.residual < np.inf
        assert np.array_equal(prox_owl(inst.b, inst.weights, report.mu_star), report.x)

    def test_bracket_failure_is_reported(self, monkeypatch):
        # A dual norm too small to kill b leaves both ends of the bracket
        # positive; the report says so and holds the better end.
        half = lambda w, lam: 0.5 * sorted_dual_norm(w, lam)  # noqa: E731
        monkeypatch.setattr(rootfind_mod, "sorted_dual_norm", half)
        # prox at mu = 1.5 is [1.5, 0], still outside the radius 0.5
        report = solve_root(Instance([3.0, 1.0], Weights([1.0, 1.0]), 0.5))
        assert report.stop == "bracket" and not report.converged
        assert report.evaluations == 2
        assert report.mu_star == 1.5
        assert np.array_equal(report.x, [1.5, 0.0])
        assert report.residual == 2.0
