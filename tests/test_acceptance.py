"""Acceptance gate: nine end-to-end criteria for the whole package.

Each test prints exactly one PASS/FAIL line to the terminal (bypassing
capture) so a full run leaves a nine-line scoreboard.  The criteria are
sized for a few minutes of wall clock on one core; deselect them with
``-m "not acceptance"`` for quick iteration.  Timing-sensitive criteria
(8 and 9) assume a reasonably quiet machine and single-threaded BLAS,
which conftest.py pins.
"""

import gc
import time

import numpy as np
import pytest

from owlball import (
    Instance,
    SsnParams,
    apply_ball_jacobian,
    ball_jacobian,
    project_ball,
    solve_root,
)
from owlball.bench import ExperimentConfig, cell_rng, generate_instance, run_experiment
from owlball.core import signed_sort
from owlball.isotonic import project_cone
from owlball.ssn import dual_gradient

from oracle import (
    active_set,
    apply_cone_jacobian,
    block_curvature,
    dense_cone_jacobian,
    difference_matrix,
    oracle_ball,
    oracle_cone,
    tight_set_blocks,
)

pytestmark = pytest.mark.acceptance

EPS = float(np.finfo(np.float64).eps)
BETAS = (1e-3, 1e-2, 1e-1, 0.5, 0.8)
SIGMAS = (1e-3, 1.0, 1e3)


def _verdict(capsys, k: int, ok: bool, detail: str) -> None:
    """The one visible scoreboard line per criterion."""
    with capsys.disabled():
        print(f"\n{'PASS' if ok else 'FAIL'} criterion {k}: {detail}")
    assert ok, f"criterion {k}: {detail}"


@pytest.fixture(scope="module")
def million_batch():
    """100 solves at n = 10^6 shared by criteria 2 and 3.

    5 radius fractions x 20 repetitions at sigma = 1e-3, solved to
    eps = 1e-12.  Each record keeps the residual, the iteration count,
    and the size of one extra Newton step replayed at the solution.
    """
    params = SsnParams(eps=1e-12)
    records = []
    t0 = time.perf_counter()
    for i_beta, beta in enumerate(BETAS):
        for rep in range(20):
            rng = cell_rng(97, i_beta, 0, 0, rep)
            inst = generate_instance(1_000_000, 1e-3, beta, rng)
            res = project_ball(inst, params)
            report = res.report
            assert report is not None and report.converged
            sort, w = signed_sort(inst.b)
            grad, p = dual_gradient(report.y_star, w, inst.weights, inst.tau)
            m = block_curvature(p, inst.weights.values)
            assert m > 0.0
            records.append({
                "beta": beta,
                "eta": report.residual_eta,
                "iters": report.iterations,
                "extra_step": abs(grad / m),
                "y_star": report.y_star,
            })
    wall = time.perf_counter() - t0
    return records, wall


class TestAcceptance:
    def test_criterion_1_oracle_equivalence(self, capsys):
        # 1000 tiny instances across the full scale/radius grid checked
        # against the brute-force KKT oracles.
        rng = np.random.default_rng(11)
        t0 = time.perf_counter()
        worst_ball = worst_cone = 0.0
        for k in range(1000):
            n = int(rng.integers(2, 11))
            sigma = SIGMAS[k % 3]
            beta = BETAS[k % 5]
            inst = generate_instance(n, sigma, beta, rng)
            worst_ball = max(worst_ball, float(np.max(np.abs(
                project_ball(inst).x - oracle_ball(inst)))))
            d = sigma * rng.standard_normal(n)
            worst_cone = max(worst_cone, float(np.max(np.abs(
                project_cone(d).x - oracle_cone(d)))))
        wall = time.perf_counter() - t0
        ok = worst_ball <= 1e-8 and worst_cone <= 1e-9 and wall < 60.0
        _verdict(capsys, 1, ok,
                 f"1000 instances: ball vs oracle {worst_ball:.2e} (<=1e-8), "
                 f"cone vs oracle {worst_cone:.2e} (<=1e-9), "
                 f"wall {wall:.1f}s (<60)")

    def test_criterion_2_residuals_and_finite_termination(
            self, million_batch, capsys):
        records, wall = million_batch
        etas = np.array([r["eta"] for r in records])
        steps = np.array([r["extra_step"] for r in records])
        bounds = EPS * (1.0 + np.abs(np.array([r["y_star"] for r in records])))
        ok = (float(etas.max()) <= 1e-12
              and float(np.median(etas)) <= 1e-13
              and bool(np.all(steps <= bounds))
              and wall < 120.0)
        _verdict(capsys, 2, ok,
                 f"n=1e6 x100: max eta {etas.max():.2e} (<=1e-12), "
                 f"median eta {np.median(etas):.2e} (<=1e-13), "
                 f"extra Newton step <= {np.max(steps / bounds):.3f}x "
                 f"of eps*(1+|y*|) (<=1), wall {wall:.0f}s (<120)")

    def test_criterion_3_iteration_counts(self, million_batch, capsys):
        records, _ = million_batch
        iters = np.array([r["iters"] for r in records])
        cell_means = [float(np.mean([r["iters"] for r in records
                                     if r["beta"] == beta]))
                      for beta in BETAS]
        frac_fast = float(np.mean(iters <= 5))
        ok = max(cell_means) <= 5.0 and frac_fast >= 0.9
        _verdict(capsys, 3, ok,
                 f"n=1e6 x100: worst per-cell mean {max(cell_means):.2f} "
                 f"iterations (<=5.0), {100 * frac_fast:.0f}% within 5 "
                 f"iterations (>=90%)")

    def test_criterion_4_quadratic_tail(self, capsys):
        # Once the iterate is near the solution (residual <= 1e-6, where
        # the local convergence theory applies), each further unit step
        # contracts the residual quadratically or lands below eps.
        params = SsnParams(eps=1e-14)
        pairs = 0
        violations = 0
        floor = 0
        worst = 0.0     # over the pairs that pass by contraction
        for i_beta, beta in enumerate(BETAS):
            for rep in range(20):
                rng = cell_rng(41, i_beta, 0, 0, rep)
                inst = generate_instance(1000, 1e-3, beta, rng)
                report = project_ball(inst, params).report
                assert report is not None and report.converged
                trace = report.step_trace
                after = [abs(s.grad) / inst.tau for s in trace[1:]]
                after.append(report.residual_eta)
                for j in range(len(trace) - 1):
                    if not (trace[j].unit_step and trace[j + 1].unit_step):
                        continue
                    r_k, r_next = after[j], after[j + 1]
                    if r_k > 1e-6:
                        continue
                    pairs += 1
                    if r_next <= 1e3 * r_k * r_k:
                        if r_k > 0.0:
                            worst = max(worst, r_next / (r_k * r_k))
                    elif r_next <= 1e-14:
                        floor += 1
                    else:
                        violations += 1
        ok = violations == 0 and pairs >= 10
        _verdict(capsys, 4, ok,
                 f"n=1e3 x100 at eps=1e-14: {pairs} tail unit-step pairs, "
                 f"{violations} contraction failures, {floor} at the 1e-14 "
                 f"floor, worst ratio r'/r^2 of the others = {worst:.1e} (<=1e3)")

    def test_criterion_5_jacobian_structure(self, capsys):
        # 500 random tight sets: the O(n) operator matches the dense
        # reference and is a nonnegative symmetric projection; the
        # rank-one-update identity holds; the ball operator built at
        # solved instances is symmetric positive semidefinite.
        rng = np.random.default_rng(51)
        worst_match = worst_idem = worst_lemma = worst_sym = 0.0
        min_eig = np.inf
        min_entry = np.inf
        lemma_checked = 0
        for k in range(500):
            n = int(rng.integers(2, 51))
            gamma = np.flatnonzero(rng.random(n) < rng.uniform(0.1, 0.9))
            p = tight_set_blocks(gamma, n)
            eye = np.eye(n)
            Hi = np.column_stack([apply_cone_jacobian(p, e) for e in eye])
            Hd = dense_cone_jacobian(gamma, n)
            worst_match = max(worst_match, float(np.max(np.abs(Hi - Hd))))
            worst_idem = max(worst_idem, float(np.max(np.abs(Hi @ Hi - Hi))))
            worst_sym = max(worst_sym, float(np.max(np.abs(Hi - Hi.T))))
            min_entry = min(min_entry, float(Hi.min()))

            # rank-one update: adding one dense row to the tight rows
            # shifts the projector by a normalized outer product
            g2 = gamma if gamma.size < n else gamma[:-1]
            alpha = rng.standard_normal(n)
            Hd2 = Hd if g2 is gamma else dense_cone_jacobian(g2, n)
            alpha1 = Hd2 @ alpha
            if float(np.linalg.norm(alpha1)) >= 1e-8:
                A = np.vstack([alpha, difference_matrix(n)[g2]])
                lhs = eye - A.T @ np.linalg.solve(A @ A.T, A)
                rhs = Hd2 - np.outer(alpha1, alpha1) / float(alpha1 @ alpha1)
                worst_lemma = max(worst_lemma,
                                  float(np.max(np.abs(lhs - rhs))))
                lemma_checked += 1

            inst = generate_instance(n, SIGMAS[k % 3], BETAS[k % 5], rng)
            res = project_ball(inst)
            s = ball_jacobian(inst, res.report)
            Sd = np.column_stack([apply_ball_jacobian(s, e) for e in eye])
            worst_sym = max(worst_sym, float(np.max(np.abs(Sd - Sd.T))))
            min_eig = min(min_eig, float(
                np.linalg.eigvalsh(0.5 * (Sd + Sd.T)).min()))
        ok = (worst_match <= 1e-12 and worst_idem <= 1e-12
              and worst_sym <= 1e-12 and min_entry >= 0.0
              and worst_lemma <= 1e-11 and lemma_checked >= 450
              and min_eig >= -1e-10)
        _verdict(capsys, 5, ok,
                 f"500 tight sets: dense match {worst_match:.1e} (<=1e-12), "
                 f"idempotence {worst_idem:.1e}, symmetry {worst_sym:.1e}, "
                 f"min entry {min_entry:.1e} (>=0), rank-one identity "
                 f"{worst_lemma:.1e} (<=1e-11, {lemma_checked} cases), "
                 f"min eigenvalue {min_eig:.1e} (>=-1e-10)")

    def test_criterion_6_local_linearization(self, capsys):
        # At 200 base points whose combinatorial structure (signed sort
        # and tight set) is verified unchanged by recomputation after a
        # relative 1e-6 perturbation, the projection moves exactly as
        # the Jacobian predicts.  Unit-scale data: the 1e-9 absolute
        # defect bound presumes O(1) inputs.
        def structure(inst, report):
            sort, w = signed_sort(inst.b)
            p = project_cone(report.y_star * inst.weights.values + w)
            return (sort.perm.tobytes(),
                    np.signbit(inst.b[sort.perm]).tobytes(),
                    active_set(p).tobytes())

        rng = np.random.default_rng(61)
        params = SsnParams(eps=1e-13)
        checked = 0
        attempts = 0
        worst = 0.0
        while checked < 200 and attempts < 4000:
            attempts += 1
            n = int(rng.integers(50, 500))
            inst = generate_instance(n, 1.0, BETAS[attempts % 5], rng)
            res = project_ball(inst, params)
            if res.report is None:
                continue
            s = ball_jacobian(inst, res.report)
            u = rng.standard_normal(n)
            u *= 1e-6 * float(np.linalg.norm(inst.b) / np.linalg.norm(u))
            inst2 = Instance(inst.b + u, inst.weights, inst.tau)
            res2 = project_ball(inst2, params)
            if res2.report is None:
                continue
            if structure(inst2, res2.report) != structure(inst, res.report):
                continue  # structure moved: not in the locally affine regime
            defect = float(np.max(np.abs(
                res2.x - res.x - apply_ball_jacobian(s, u))))
            worst = max(worst, defect)
            checked += 1
        ok = checked == 200 and worst <= 1e-9
        _verdict(capsys, 6, ok,
                 f"{checked}/200 structure-stable perturbations at relative "
                 f"1e-6: worst linearization defect {worst:.1e} (<=1e-9)")

    def test_criterion_7_solver_agreement(self, capsys):
        # The Newton solver and the derivative-free bracketing baseline
        # answer the same question; on 100 mid-size instances their
        # objectives and solution vectors must agree.
        worst_gap = worst_vec = 0.0
        k = 0
        for i_beta, beta in enumerate(BETAS):
            for rep in range(20):
                rng = cell_rng(73, i_beta, 0, rep % 3, rep)
                inst = generate_instance(100_000, SIGMAS[rep % 3], beta, rng)
                x_n = project_ball(inst, SsnParams(eps=1e-12)).x
                x_b = solve_root(inst, tol=1e-12).x
                o_n = 0.5 * float(np.dot(x_n - inst.b, x_n - inst.b))
                o_b = 0.5 * float(np.dot(x_b - inst.b, x_b - inst.b))
                gap = abs(o_n - o_b) / (1.0 + abs(o_n) + abs(o_b))
                vec = float(np.max(np.abs(x_n - x_b))
                            / (1.0 + np.max(np.abs(inst.b))))
                worst_gap = max(worst_gap, gap)
                worst_vec = max(worst_vec, vec)
                k += 1
        ok = k == 100 and worst_gap <= 1e-10 and worst_vec <= 1e-6
        _verdict(capsys, 7, ok,
                 f"n=1e5 x100: worst relative objective gap {worst_gap:.1e} "
                 f"(<=1e-10), worst scaled vector gap {worst_vec:.1e} "
                 f"(<=1e-6)")

    def test_criterion_8_newton_faster_than_rootfind(self, capsys):
        # Serial wall-clock comparison over the default grid at n = 1e6,
        # averaged over 3 repetitions per cell to damp timer noise.
        gc.collect()
        cfg = ExperimentConfig(
            n_list=(1_000_000,), sigma_list=SIGMAS, beta_list=BETAS,
            reps=3, seed=83, solvers=("ssn", "rootfind"), eps=1e-12)
        cells = run_experiment(cfg)
        wins = 0
        for cell in cells:
            t_ssn = np.mean([r.time_s for r in cell.records
                             if r.solver == "ssn"])
            t_rf = np.mean([r.time_s for r in cell.records
                            if r.solver == "rootfind"])
            wins += t_ssn <= t_rf
        frac = wins / len(cells)
        ok = frac >= 0.9
        _verdict(capsys, 8, ok,
                 f"n=1e6, {len(cells)} cells: Newton at least as fast as "
                 f"bracketing on {wins} ({100 * frac:.0f}%, >=90%)")

    def test_criterion_9_linear_scaling(self, capsys):
        # O(n) per solve: a 10x larger instance should take about 10x
        # longer; [5, 20] leaves slack for cache effects and timer noise.
        gc.collect()
        cfg = ExperimentConfig(
            n_list=(100_000, 1_000_000), sigma_list=SIGMAS,
            beta_list=BETAS, reps=1, seed=91, solvers=("ssn",),
            eps=1e-12)
        cells = run_experiment(cfg)
        times = {100_000: [], 1_000_000: []}
        for cell in cells:
            times[cell.n].extend(r.time_s for r in cell.records)
        ratio = float(np.median(times[1_000_000]) / np.median(times[100_000]))
        ok = 5.0 <= ratio <= 20.0
        _verdict(capsys, 9, ok,
                 f"median solve-time ratio n=1e6 over n=1e5 is {ratio:.1f} "
                 f"(within [5, 20])")
