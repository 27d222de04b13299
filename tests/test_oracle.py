import numpy as np
import pytest

from owlball import Instance, Weights, owl_norm

from oracle import (
    MAX_N_BALL,
    MAX_N_CONE,
    ball_certificate,
    cone_certificate,
    oracle_ball,
    oracle_cone,
    oracle_dual_norm,
)


def random_instance(rng, n, sigma=1.0, beta=None):
    b = sigma * rng.standard_normal(n)
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    lam[0] += 0.01
    w = Weights(lam)
    if beta is None:
        beta = float(rng.uniform(0.05, 0.95))
    return Instance(b, w, beta * owl_norm(b, w))


class TestOracleCone:
    def test_feasible_point_is_fixed(self):
        d = np.array([4.0, 2.0, 1.0])
        assert np.max(np.abs(oracle_cone(d) - d)) <= 1e-12

    def test_pooling_example(self):
        got = oracle_cone(np.array([1.0, 3.0, 2.0]))
        assert np.max(np.abs(got - 2.0)) <= 1e-12

    def test_polar_point_goes_to_zero(self):
        got = oracle_cone(np.array([-1.0, -2.0, 3.0]))
        assert np.max(np.abs(got)) <= 1e-12

    def test_certificate_fields(self):
        rng = np.random.default_rng(91)
        for _ in range(50):
            n = int(rng.integers(1, 8))
            d = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 1e3])
            cert = cone_certificate(d)
            assert cert.max_violation <= 1e-10
            assert cert.y is None
            assert cert.z.min() >= -1e-10 * (1.0 + np.max(np.abs(d)))
            x = cert.x
            assert np.all(np.diff(x) <= 1e-12) and x.min() >= -1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_cone(np.zeros(MAX_N_CONE + 1))


class TestOracleBall:
    def test_trivial_instance_returns_b(self):
        inst = Instance([1.0, 0.0], Weights([1.0, 1.0]), 2.0)
        assert np.array_equal(oracle_ball(inst), inst.b)

    def test_l1_example(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 1.0]), 2.0)
        assert np.max(np.abs(oracle_ball(inst) - [2.0, 0.0])) <= 1e-10

    def test_linf_example(self):
        inst = Instance([3.0, 1.0], Weights([1.0, 0.0]), 2.0)
        assert np.max(np.abs(oracle_ball(inst) - [2.0, 1.0])) <= 1e-10

    def test_certificates_across_scales(self):
        rng = np.random.default_rng(92)
        for _ in range(60):
            n = int(rng.integers(2, 8))
            sigma = float(rng.choice([1e-3, 1.0, 1e3]))
            inst = random_instance(rng, n, sigma=sigma)
            cert = ball_certificate(inst)
            assert cert.max_violation <= 1e-10
            scale = 1.0 + max(float(np.max(np.abs(inst.b))), inst.tau)
            assert cert.z.min() >= -1e-10 * scale
            assert cert.y >= -1e-10 * scale

    def test_output_stays_in_ball(self):
        rng = np.random.default_rng(93)
        for _ in range(60):
            inst = random_instance(rng, int(rng.integers(1, 8)))
            x = oracle_ball(inst)
            assert owl_norm(x, inst.weights) <= inst.tau * (1.0 + 1e-12)

    def test_sorted_input_gives_sorted_output(self):
        rng = np.random.default_rng(94)
        for _ in range(40):
            n = int(rng.integers(2, 8))
            inst = random_instance(rng, n)
            b = np.sort(np.abs(inst.b))[::-1]
            sorted_inst = Instance(b, inst.weights, inst.tau)
            x = oracle_ball(sorted_inst)
            assert np.all(np.diff(x) <= 1e-12)
            assert x.min() >= -1e-12

    def test_size_cap(self):
        inst = Instance(np.arange(MAX_N_BALL + 1.0) + 1.0,
                        Weights(np.ones(MAX_N_BALL + 1)), 1.0)
        with pytest.raises(ValueError):
            oracle_ball(inst)


class TestOracleDualNorm:
    def test_l1_linf_pair(self):
        rng = np.random.default_rng(95)
        y = rng.standard_normal(6)
        assert oracle_dual_norm(y, Weights(np.ones(6))) == pytest.approx(
            np.max(np.abs(y)), rel=1e-12)
        assert oracle_dual_norm(
            y, Weights([1.0, 0.0, 0.0, 0.0, 0.0, 0.0])) == pytest.approx(
            np.sum(np.abs(y)), rel=1e-12)

    def test_is_a_support_function_upper_bound(self):
        # the dual norm is the support function of the unit ball, so the
        # inner product with any feasible point can never exceed it
        rng = np.random.default_rng(96)
        for _ in range(50):
            n = int(rng.integers(1, 7))
            y = rng.standard_normal(n)
            lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
            lam[0] += 0.01
            w = Weights(lam)
            nstar = oracle_dual_norm(y, w)
            for _ in range(20):
                x = rng.standard_normal(n)
                x /= owl_norm(x, w)
                assert float(np.dot(x, y)) <= nstar * (1.0 + 1e-10) + 1e-12

    def test_size_cap(self):
        with pytest.raises(ValueError):
            oracle_dual_norm(np.zeros(MAX_N_BALL + 1), Weights(np.ones(MAX_N_BALL + 1)))
