import numpy as np
import pytest

from owlball import Instance, Weights, owl_norm, project_ball
from owlball.bench import (
    CSV_HEADER,
    DEFAULT_BETA_LIST,
    DEFAULT_N_LIST,
    DEFAULT_SIGMA_LIST,
    ExperimentConfig,
    cell_rng,
    generate_instance,
    render_csv,
    render_markdown,
    run_experiment,
)

SMALL_CFG = dict(n_list=(50, 200), sigma_list=(1.0,), beta_list=(0.1, 0.8),
                 reps=2, seed=123)


class TestGenerateInstance:
    def test_construction_invariants(self):
        rng = cell_rng(0, 0, 0, 0, 0)
        inst = generate_instance(100, 1.0, 0.5, rng)
        assert isinstance(inst, Instance)
        lam = inst.weights.values
        assert np.all(np.diff(lam) <= 0.0) and lam.min() >= 0.0 and lam[0] > 0.0
        assert owl_norm(inst.b, inst.weights) > inst.tau

    def test_deterministic_given_seed(self):
        a = generate_instance(1000, 1e-3, 0.8, cell_rng(7, 1, 2, 0, 3))
        b = generate_instance(1000, 1e-3, 0.8, cell_rng(7, 1, 2, 0, 3))
        assert np.array_equal(a.b, b.b)
        assert np.array_equal(a.weights.values, b.weights.values)
        assert a.tau == b.tau

    def test_distinct_cells_get_distinct_streams(self):
        a = generate_instance(100, 1.0, 0.5, cell_rng(0, 0, 0, 0, 0))
        b = generate_instance(100, 1.0, 0.5, cell_rng(0, 0, 0, 0, 1))
        assert not np.array_equal(a.b, b.b)

    def test_boundary_solution_at_generated_instance(self):
        inst = generate_instance(1000, 1.0, 0.5, cell_rng(42, 0, 0, 0, 0))
        res = project_ball(inst)
        assert res.report.converged
        assert owl_norm(res.x, inst.weights) == pytest.approx(inst.tau, rel=1e-10)

    @pytest.mark.parametrize("kwargs", [
        {"n": 0}, {"sigma": 0.0}, {"sigma": -1.0}, {"beta": 0.0}, {"beta": 1.0},
    ])
    def test_rejects_invalid(self, kwargs):
        args = {"n": 10, "sigma": 1.0, "beta": 0.5}
        args.update(kwargs)
        with pytest.raises(ValueError):
            generate_instance(args["n"], args["sigma"], args["beta"],
                              cell_rng(0, 0, 0, 0, 0))


class TestConfig:
    def test_defaults_match_documented_grid(self):
        cfg = ExperimentConfig()
        assert cfg.n_list == DEFAULT_N_LIST
        assert cfg.sigma_list == DEFAULT_SIGMA_LIST
        assert cfg.beta_list == DEFAULT_BETA_LIST
        assert cfg.solvers == ("ssn", "rootfind")

    @pytest.mark.parametrize("kwargs", [
        {"n_list": ()}, {"sigma_list": ()}, {"beta_list": ()},
        {"beta_list": (0.5, 1.0)}, {"beta_list": (0.0,)},
        {"sigma_list": (0.0,)}, {"n_list": (0,)},
        {"reps": 0}, {"solvers": ()}, {"solvers": ("ssn", "ssn")},
        {"solvers": ("newton",)}, {"eps": 0.0},
        {"eps": np.inf},
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            ExperimentConfig(**kwargs)


class TestRunExperiment:
    def test_grid_shape_and_agreement(self):
        cfg = ExperimentConfig(**SMALL_CFG)
        cells = run_experiment(cfg)
        assert len(cells) == 4  # 2 beta x 2 n x 1 sigma
        for cell in cells:
            assert len(cell.records) == 2 * cfg.reps  # both solvers
            assert not cell.any_nonconverged
            assert cell.max_objective_gap < 1e-10
            for r in cell.records:
                assert r.time_s >= 0.0
                assert r.iters_or_evals > 0

    def test_ssn_only_run_omits_baseline(self):
        cfg = ExperimentConfig(solvers=("ssn",), **SMALL_CFG)
        cells = run_experiment(cfg)
        for cell in cells:
            assert {r.solver for r in cell.records} == {"ssn"}
            assert cell.max_objective_gap == 0.0

    def test_rerun_is_deterministic_outside_timings(self):
        cfg = ExperimentConfig(**SMALL_CFG)

        def strip_times(cells):
            out = []
            for line in render_csv(cells).splitlines():
                parts = line.split(",")
                del parts[5:6]
                out.append(",".join(parts))
            return out

        assert strip_times(run_experiment(cfg)) == strip_times(run_experiment(cfg))


class TestRendering:
    def test_csv_header_and_shape(self):
        cells = run_experiment(ExperimentConfig(**SMALL_CFG))
        text = render_csv(cells)
        lines = text.strip().split("\n")
        assert lines[0] == CSV_HEADER
        assert lines[0] == "beta,n,sigma,solver,rep,time_s,iters_or_evals,eta,objective"
        assert len(lines) == 1 + sum(len(c.records) for c in cells)
        row = lines[1].split(",")
        assert len(row) == 9
        float(row[0]), int(row[1]), float(row[2])  # parses numerically
        assert row[3] in ("ssn", "rootfind")

    def test_markdown_table(self):
        cells = run_experiment(ExperimentConfig(**SMALL_CFG))
        text = render_markdown(cells)
        lines = text.strip().split("\n")
        assert lines[0].startswith("| beta | n | sigma | solver |")
        # one summary row per (cell, solver)
        assert len(lines) == 2 + 2 * len(cells)
        assert all("| ok |" in line for line in lines[2:])


@pytest.mark.perf
def test_newton_beats_baseline_with_slack():
    # Hard assertion with 2x slack; the strict ordering claim lives in
    # the acceptance suite at full size.
    cfg = ExperimentConfig(n_list=(100_000,), sigma_list=(1e-3, 1.0, 1e3),
                           beta_list=(1e-3, 1e-1, 0.8), reps=1, seed=9)
    for cell in run_experiment(cfg):
        assert cell.mean_time("ssn") <= 2.0 * cell.mean_time("rootfind")
