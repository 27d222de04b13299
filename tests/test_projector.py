import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import owlball.isotonic as isotonic_mod
import owlball.ssn as ssn_mod
from owlball import (
    Instance,
    SsnParams,
    Weights,
    owl_norm,
    project_ball,
    prox_owl,
)
from owlball.core import INSIDE_RTOL, signed_sort
from owlball.isotonic import project_cone
from owlball.rootfind import dual_norm, solve_root

from oracle import block_values, oracle_ball

EPS = float(np.finfo(np.float64).eps)

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

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 39), beta=st.floats(0.05, 0.95),
           seed=st.integers(0, 2**32 - 1))
    def test_idempotence(self, n, beta, seed):
        inst = random_instance(np.random.default_rng(seed), n, beta=beta)
        x = project_ball(inst).x
        again = project_ball(Instance(x, inst.weights, inst.tau)).x
        assert np.max(np.abs(again - x)) <= 1e-12 * (1.0 + np.max(np.abs(x)))

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 40),
           family=st.sampled_from(["l1", "linf", "top-k", "trailing-zero", "gauss"]),
           ties=st.booleans(), gap=st.sampled_from([1e-3, 0.1, 1.0, 10.0]),
           beta=st.floats(0.01, 0.95), seed=st.integers(0, 2**32 - 1))
    def test_nonexpansive(self, n, family, ties, gap, beta, seed):
        # ||P(a) - P(b)|| <= ||a - b|| on one ball, for near and far pairs;
        # rounding to one decimal gives ties (and, at times, a == b).
        rng = np.random.default_rng(seed)
        lam = np.zeros(n)
        if family == "l1":
            lam[:] = 1.0
        elif family == "linf":
            lam[0] = 1.0
        elif family == "top-k":
            lam[:rng.integers(1, n + 1)] = 1.0
        else:
            lam[:] = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.01
            if family == "trailing-zero":
                lam[rng.integers(1, n + 1):] = 0.0
        weights = Weights(lam)
        a = rng.standard_normal(n)
        b = a + gap * rng.standard_normal(n)
        if ties:
            a, b = np.round(a, 1), np.round(b, 1)
        tau = beta * max(owl_norm(a, weights), owl_norm(b, weights))
        assume(tau > 0.0)
        pa = project_ball(Instance(a, weights, tau)).x
        pb = project_ball(Instance(b, weights, tau)).x
        assert np.linalg.norm(pa - pb) <= np.linalg.norm(a - b) * (1.0 + 1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(68)
        betas = (1e-3, 1e-2, 1e-1, 0.5, 0.8)
        for k in range(200):
            n = int(rng.integers(2, 11))
            inst = random_instance(rng, n, beta=betas[k % len(betas)])
            got = project_ball(inst).x
            want = oracle_ball(inst)
            assert np.max(np.abs(got - want)) <= 1e-8

    def test_propagates_solver_report(self, monkeypatch):
        monkeypatch.setattr(ssn_mod, "_MAX_ITER", 1)
        rng = np.random.default_rng(69)
        inst = random_instance(rng, 20, beta=0.3)
        res = project_ball(inst, SsnParams(eps=1e-15))
        assert not res.report.converged

    def test_report_carries_sort_and_final_projection(self):
        # The report's cone projection is the one at y_star: the same
        # blocks bit for bit, and, where a block step below hi wrote it,
        # values within the block step's bound of the coordinates'
        # projection (tests/test_ssn.py::TestBlockStep).  Its sort is the
        # signed sort of b, holding b itself: ball_jacobian reuses both.
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
            assert report.sort.b is inst.b
            lam = inst.weights.values
            p = project_cone(report.y_star * lam + w)
            bound = 4.0 * EPS * max(w[0], abs(report.y_star) * lam[0])
            assert np.all(np.abs(report.cone.x - p.x) <= bound)
            assert np.array_equal(report.cone.block_starts, p.block_starts)
            assert np.all(np.abs(block_values(report.cone) - block_values(p)) <= bound)
            assert not np.signbit(report.cone.x).any()

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

    # Newton iterations allowed per weight family, the first step (on
    # to the model root for plateau weights) included.  The model root
    # is exact for L1 and Linf, where that first step lands on the root.
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
        # The first step from 0 lands in y* <= y <= 0 up to roundoff, at
        # every plateau length and at scales 2**-500 to 2**500; the
        # oracle checks the answer at the unit scale (the projection is
        # positively homogeneous, and a power of two scales it exactly).
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
        trace = report.step_trace
        assert trace[0].y == 0.0 < trace[0].grad
        landing = trace[1].y if len(trace) > 1 else report.y_star
        assert report.y_star * (1.0 + 1e-12) <= landing <= 0.0
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


class TestSignsReadOffB:
    """The inverse sort copies each sign bit off ``b``: the solvers'
    sorted-space results are nonnegative and zero wherever ``b`` is, so
    ``x`` keeps the sign of ``b`` on its support and holds a zero of the
    sign of ``b`` (-0.0 where ``b`` holds -0.0) wherever ``b`` is zero."""

    @staticmethod
    def signed_zero_cases(rng):
        """Instances whose ``b`` mixes ties, +0.0, -0.0 and subnormals."""
        for k in range(120):
            n = int(rng.integers(1, 80))
            b = np.round(rng.standard_normal(n), 1)     # ties, zeros of both signs
            if k % 3 == 0:
                b[rng.random(n) < 0.2] = -0.0
            if k % 4 == 1:
                b[rng.random(n) < 0.2] = rng.choice([5e-324, -5e-324, -1e-310], 1)[0]
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1] + 0.01
            if k % 5 == 2:
                lam[n // 2:] = 0.0
            weights = Weights(lam)
            norm = owl_norm(b, weights)
            if norm > 0.0:
                yield Instance(b, weights, float(rng.uniform(0.05, 0.95)) * norm)

    @staticmethod
    def assert_signs_of(x, b):
        support = x != 0.0
        assert np.array_equal(np.signbit(x[support]), np.signbit(b[support]))
        zero = b == 0.0
        assert x[zero].tobytes() == b[zero].tobytes()

    def test_project_ball_solve_root_and_prox(self):
        rng = np.random.default_rng(98)
        checked = with_negative_zero = 0
        for inst in self.signed_zero_cases(rng):
            res = project_ball(inst)
            if res.trivial:
                continue
            self.assert_signs_of(res.x, inst.b)
            self.assert_signs_of(solve_root(inst).x, inst.b)
            mu = float(rng.uniform(0.0, 1.0)) * dual_norm(inst.b, inst.weights)
            self.assert_signs_of(prox_owl(inst.b, inst.weights, mu), inst.b)
            checked += 1
            with_negative_zero += bool(np.any((inst.b == 0.0) & np.signbit(inst.b)))
        assert checked >= 80 and with_negative_zero >= 20

    def test_report_sort_holds_no_float_vector_but_b(self):
        # The sort keeps perm and b itself: no n-sized float array of its
        # own, such as the signs it used to store.
        inst = random_instance(np.random.default_rng(99), 500, beta=0.3)
        sort = project_ball(inst).report.sort
        floats = [v for v in vars(sort).values()
                  if isinstance(v, np.ndarray) and v.dtype.kind == "f"]
        assert len(floats) == 1 and floats[0] is inst.b
        assert sort.perm.dtype == np.intp and sort.perm.size == inst.n


THREAD_RUN = """
import hashlib
import numpy as np
import owlball

rng = np.random.default_rng(5)
n = 200_000
b = rng.standard_normal(n)
w = owlball.Weights(np.sort(np.abs(rng.standard_normal(n)))[::-1])
inst = owlball.Instance(b, w, 0.1 * owlball.owl_norm(b, w))
res = owlball.project_ball(inst)
s = owlball.ball_jacobian(inst, res.report)
for a in (res.x, np.float64(res.report.y_star), s.label, s.inv_sizes, s.hb,
          owlball.apply_ball_jacobian(s, rng.standard_normal(n)), owlball.solve_root(inst).x):
    print(hashlib.sha256(np.asarray(a).tobytes()).hexdigest())
"""


def test_answers_do_not_depend_on_the_blas_thread_count():
    # OpenBLAS splits a long np.dot across its threads, which changes
    # the sum's bits; every dot that reaches an answer is an einsum
    # (owlball.core.dot).  conftest.py only sets a default thread count,
    # so each run sets its own.
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        paths = [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        env["PYTHONPATH"] = os.pathsep.join(paths)
        proc = subprocess.run([sys.executable, "-c", THREAD_RUN], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout.split())
    assert len(digests[0]) == 7
    assert digests[0] == digests[1]
