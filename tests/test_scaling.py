"""Scaling by a power of two commutes with every solve, bit for bit.

The projection and the prox are positively homogeneous, and the
Jacobian is scale-free.  Multiplying by ``2**k`` is exact away from
overflow and subnormals, and every stop test is relative, so each
operation on the scaled data is the unscaled one times ``2**k``: the
same iterates, the same stops, the same bytes.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from owlball import (
    Instance,
    Weights,
    apply_ball_jacobian,
    ball_jacobian,
    owl_norm,
    project_ball,
    prox_owl,
    solve_root,
)


def same_bytes(a, b) -> bool:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@st.composite
def scaled_cases(draw):
    """``(b, weights, tau, s)``: Gaussian ``b`` (maybe with ties), plateau,
    Gaussian or top-tenth weights, a radius ``beta * owl_norm(b)`` and a
    factor ``s = 2**k`` with ``k`` in [-900, 900]."""
    n = draw(st.one_of(st.integers(1, 10), st.integers(11, 300)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["plateau", "gauss", "top tenth"]))
    if family == "plateau":
        k = draw(st.integers(1, n))
        lam = np.where(np.arange(n) < k, draw(st.sampled_from([1.0, 0.3, 2.5])), 0.0)
    elif family == "gauss":
        lam = np.sort(np.abs(rng.standard_normal(n)))[::-1] + 0.01
    else:
        lam = np.where(np.arange(n) < max(1, n // 10), 1.0, 0.0)
    b = rng.standard_normal(n)
    if draw(st.booleans()):
        b = np.round(b, 1)              # ties in |b|, some zeros
    weights = Weights(lam)
    tau = draw(st.floats(0.01, 0.95)) * owl_norm(b, weights)
    assume(tau > 0.0)
    return b, weights, tau, 2.0 ** draw(st.integers(-900, 900))


class TestPowerOfTwoScaling:
    @settings(max_examples=600, deadline=None)
    @given(case=scaled_cases())
    def test_project_ball_and_jacobian(self, case):
        b, weights, tau, s = case
        inst = Instance(b, weights, tau)
        scaled = Instance(s * b, weights, s * tau)
        res, res_s = project_ball(inst), project_ball(scaled)
        assert res.trivial == res_s.trivial
        assume(not res.trivial)
        assert same_bytes(res_s.x / s, res.x)
        assert same_bytes(res_s.report.y_star / s, res.report.y_star)
        assert res_s.report.iterations == res.report.iterations
        assert res_s.report.stop == res.report.stop

        jac = ball_jacobian(inst, res.report)
        jac_s = ball_jacobian(scaled, res_s.report)
        rng = np.random.default_rng(b.size)
        for v in rng.standard_normal((3, b.size)):
            assert same_bytes(apply_ball_jacobian(jac_s, v), apply_ball_jacobian(jac, v))

    @settings(max_examples=300, deadline=None)
    @given(case=scaled_cases())
    def test_solve_root_and_prox(self, case):
        b, weights, tau, s = case
        assume(owl_norm(b, weights) > tau)
        root = solve_root(Instance(b, weights, tau), tol=1e-12)
        root_s = solve_root(Instance(s * b, weights, s * tau), tol=1e-12)
        assert same_bytes(root_s.x / s, root.x)
        assert same_bytes(root_s.mu_star / s, root.mu_star)
        assert root_s.evaluations == root.evaluations

        mu = root.mu_star
        assert same_bytes(prox_owl(s * b, weights, s * mu) / s, prox_owl(b, weights, mu))


class TestWeightScale:
    def test_overflowing_curvature_is_no_converged_no_op(self):
        # Scaling the weights and the radius together leaves the ball as
        # it is.  From about 1e154 on <lam, lam> overflows to inf, and the
        # Newton step -phi'/M is then 0 at y = 0: that must not pass as a
        # converged no-op returning b, ten times the radius here.  At 1e305
        # the roundoff bound on phi' overflows too, and must not pass the
        # step out of the bracket as a converged roundoff stop.  The solve
        # must be unconverged or feasible.
        from owlball.bench import cell_rng, generate_instance

        inst = generate_instance(1000, 1.0, 0.1, cell_rng(0, 0, 0, 0, 0))
        for s in (1e160, 1e200, 1e305):
            weights = Weights(inst.weights.values * s)
            res = project_ball(Instance(inst.b, weights, inst.tau * s))
            assert not res.trivial
            gap = owl_norm(res.x, weights) / (inst.tau * s) - 1.0
            assert not res.report.converged or abs(gap) <= 1e-9, (s, res.report.stop, gap)


class TestOverflow:
    # Outside the ball both solvers need <w, lam> and the dual norm to be
    # finite; an overflow of either raises one ValueError naming it.  A
    # power-of-two prescale would give the answer here instead.
    @pytest.mark.parametrize("lam, tau", [
        ([1.0, 1.0], 1.0),          # <w, lam> overflows
        ([1e-10, 1e-10], 1e297),    # only the dual norm, 1e318, does
    ])
    def test_overflowing_norms_raise(self, lam, tau):
        inst = Instance([1e308, 1e308], Weights(lam), tau)
        for solver in (project_ball, solve_root):
            with pytest.raises(ValueError, match="overflows float64"):
                solver(inst)

    def test_dual_norm_is_not_needed_inside_the_ball(self):
        inst = Instance([1e308, 1e308], Weights([1e-10, 1e-10]), 1e299)
        assert project_ball(inst).trivial

    def test_an_overflowing_bound_on_the_dual_norm_is_no_overflow(self):
        # At weight scale 2**-1010 the bound n <w, lam> / lam[0]**2 that
        # spares the dual norm overflows, but the dual norm does not.
        from owlball.bench import cell_rng, generate_instance

        inst = generate_instance(1000, 1.0, 0.1, cell_rng(0, 0, 0, 0, 0))
        s = 2.0 ** -1010
        weights = Weights(inst.weights.values * s)
        rf = solve_root(Instance(inst.b, weights, inst.tau * s), tol=1e-12)
        assert rf.converged
        assert same_bytes(rf.x, solve_root(inst, tol=1e-12).x)
