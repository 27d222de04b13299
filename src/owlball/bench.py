"""Benchmark harness: random instances, timed solver races, tables.

Instance generation is deterministic by construction, not by luck: each
(beta, n, sigma, rep) cell draws from its own counter-based stream,
``Philox`` keyed by ``SeedSequence(seed, spawn_key=(i_beta, i_n,
i_sigma, rep))``.  Streams are independent of execution order, so any
subset of a grid sees bit-for-bit the same instances (and hence the
same non-timing columns) as the full grid.  Gaussians come from
numpy's standard normal on that stream.  Cells run one after another,
so their timings are comparable.

Both solvers are driven to the same radius-residual target (``eps``
on :func:`owlball.ssn.residual`, relative to ``tau``), so their
objectives are comparable and the timing race is fair; the
root-finder's looser standalone default would otherwise concede
accuracy for speed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .core import Instance, Weights, owl_norm
from .projector import project_ball
from .rootfind import BracketError, NonConvergenceError, solve_root
from .ssn import SsnParams

__all__ = [
    "SOLVERS",
    "ExperimentConfig",
    "RepRecord",
    "CellResult",
    "generate_instance",
    "cell_rng",
    "run_experiment",
    "render_csv",
    "render_markdown",
]

SOLVERS = ("ssn", "rootfind")

DEFAULT_N_LIST = (10_000, 100_000, 1_000_000)
DEFAULT_SIGMA_LIST = (1e-3, 1.0, 1e3)
DEFAULT_BETA_LIST = (1e-3, 1e-2, 1e-1, 0.5, 0.8)

CSV_HEADER = "beta,n,sigma,solver,rep,time_s,iters_or_evals,eta,objective"

# Converged solvers must agree on the objective to this relative gap;
# larger disagreement means one of them is wrong, which is fatal.
_GAP_TOL = 1e-10


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid and policy for one experiment run."""

    n_list: tuple = DEFAULT_N_LIST
    sigma_list: tuple = DEFAULT_SIGMA_LIST
    beta_list: tuple = DEFAULT_BETA_LIST
    reps: int = 3
    seed: int = 0
    solvers: tuple = SOLVERS
    eps: float = 1e-12

    def __post_init__(self):
        object.__setattr__(self, "n_list", tuple(int(n) for n in self.n_list))
        object.__setattr__(self, "sigma_list", tuple(float(s) for s in self.sigma_list))
        object.__setattr__(self, "beta_list", tuple(float(b) for b in self.beta_list))
        object.__setattr__(self, "solvers", tuple(self.solvers))
        if not self.n_list or not self.sigma_list or not self.beta_list:
            raise ValueError("n_list, sigma_list and beta_list must be non-empty")
        if any(n < 1 for n in self.n_list):
            raise ValueError("all n must be positive")
        if any(s <= 0.0 for s in self.sigma_list):
            raise ValueError("all sigma must be positive")
        if any(not 0.0 < b < 1.0 for b in self.beta_list):
            raise ValueError("all beta must lie in (0, 1)")
        if self.reps < 1:
            raise ValueError("reps must be at least 1")
        if not self.solvers or any(s not in SOLVERS for s in self.solvers):
            raise ValueError(f"solvers must be a non-empty subset of {SOLVERS}")
        if len(set(self.solvers)) != len(self.solvers):
            raise ValueError("solvers must not repeat")
        if not 0.0 < self.eps < np.inf:
            raise ValueError("eps must be positive and finite")


@dataclass(frozen=True)
class RepRecord:
    """One timed solve."""

    solver: str
    rep: int
    time_s: float
    iters_or_evals: int
    eta: float
    objective: float
    converged: bool


@dataclass
class CellResult:
    """All repetitions of one (beta, n, sigma) grid cell."""

    beta: float
    n: int
    sigma: float
    records: list[RepRecord] = field(default_factory=list)
    max_objective_gap: float = 0.0

    def solver_records(self, solver: str) -> list[RepRecord]:
        return [r for r in self.records if r.solver == solver]

    def mean_time(self, solver: str) -> float:
        recs = self.solver_records(solver)
        return float(np.mean([r.time_s for r in recs]))

    def mean_iters(self, solver: str) -> float:
        recs = self.solver_records(solver)
        return float(np.mean([r.iters_or_evals for r in recs]))

    def mean_eta(self, solver: str) -> float:
        recs = [r for r in self.solver_records(solver) if r.converged]
        if not recs:
            return float("nan")
        return float(np.mean([r.eta for r in recs]))

    @property
    def any_nonconverged(self) -> bool:
        return any(not r.converged for r in self.records)


def cell_rng(seed: int, i_beta: int, i_n: int, i_sigma: int, rep: int) -> np.random.Generator:
    """The dedicated random stream of one grid cell repetition."""
    ss = np.random.SeedSequence(seed, spawn_key=(i_beta, i_n, i_sigma, rep))
    return np.random.Generator(np.random.Philox(ss))


def generate_instance(n: int, sigma: float, beta: float,
                      rng: np.random.Generator) -> Instance:
    """Random projection instance.

    ``b`` is i.i.d. N(0, sigma^2); the weights are the magnitudes of n
    standard normals sorted in decreasing order; the radius is
    ``beta * owl_norm(b)``, so ``beta < 1`` makes the instance strictly
    infeasible.  The draw order (b first, then weights) is part of the
    reproducibility contract.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if not sigma > 0.0:
        raise ValueError("sigma must be positive")
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie in (0, 1)")
    b = sigma * rng.standard_normal(n)
    lam = np.abs(rng.standard_normal(n))
    lam[::-1].sort()  # ascending on the reversed view = descending in place
    weights = Weights(lam)
    tau = beta * owl_norm(b, weights)
    return Instance(b, weights, tau)


def _run_cell(cfg: ExperimentConfig, i_beta: int, i_n: int, i_sigma: int) -> CellResult:
    beta = cfg.beta_list[i_beta]
    n = cfg.n_list[i_n]
    sigma = cfg.sigma_list[i_sigma]
    cell = CellResult(beta=beta, n=n, sigma=sigma)
    params = SsnParams(eps=cfg.eps)
    for rep in range(cfg.reps):
        rng = cell_rng(cfg.seed, i_beta, i_n, i_sigma, rep)
        inst = generate_instance(n, sigma, beta, rng)
        objectives = {}
        for solver in cfg.solvers:
            if solver == "ssn":
                t0 = time.perf_counter()
                res = project_ball(inst, params)
                dt = time.perf_counter() - t0
                report = res.report
                converged = report is None or report.converged
                iters = 0 if report is None else report.iterations
                eta = 0.0 if report is None else report.residual_eta
                obj = 0.5 * float(np.dot(res.x - inst.b, res.x - inst.b))
            else:
                t0 = time.perf_counter()
                try:
                    rf = solve_root(inst, tol=cfg.eps)
                except (NonConvergenceError, BracketError):
                    dt = time.perf_counter() - t0
                    cell.records.append(RepRecord(
                        solver=solver, rep=rep, time_s=dt,
                        iters_or_evals=0, eta=float("nan"),
                        objective=float("nan"), converged=False))
                    continue
                dt = time.perf_counter() - t0
                converged = True
                iters = rf.evaluations
                eta = rf.residual
                obj = 0.5 * float(np.dot(rf.x - inst.b, rf.x - inst.b))
            cell.records.append(RepRecord(
                solver=solver, rep=rep, time_s=dt, iters_or_evals=iters,
                eta=eta, objective=obj, converged=converged))
            if converged:
                objectives[solver] = obj
        names = sorted(objectives)
        for i, s1 in enumerate(names):
            for s2 in names[i + 1:]:
                o1, o2 = objectives[s1], objectives[s2]
                gap = abs(o1 - o2) / (1.0 + abs(o1) + abs(o2))
                cell.max_objective_gap = max(cell.max_objective_gap, gap)
                if gap >= _GAP_TOL:
                    raise RuntimeError(
                        f"solvers {s1} and {s2} disagree on cell "
                        f"(beta={beta}, n={n}, sigma={sigma}, rep={rep}): "
                        f"objectives {o1!r} vs {o2!r}, relative gap {gap:.3e}")
    return cell


def run_experiment(cfg: ExperimentConfig) -> list:
    """Run the full grid; returns one CellResult per (beta, n, sigma).

    Wall-clock covers the solve call only (instance generation and
    bookkeeping are outside the timers).  Converged solvers must agree
    on the objective to a relative gap of 1e-10 or the run aborts: a
    benchmark comparing two answers is meaningless if they differ.
    Non-convergence, by contrast, is recorded on the cell and left to
    the caller.
    """
    return [_run_cell(cfg, ib, inn, isg)
            for ib in range(len(cfg.beta_list))
            for inn in range(len(cfg.n_list))
            for isg in range(len(cfg.sigma_list))]


def render_csv(cells) -> str:
    """Per-repetition rows under the fixed header.

    All columns except ``time_s`` are deterministic for a given seed.
    """
    lines = [CSV_HEADER]
    for cell in cells:
        for r in cell.records:
            lines.append(
                f"{cell.beta:.17g},{cell.n},{cell.sigma:.17g},{r.solver},"
                f"{r.rep},{r.time_s:.6e},{r.iters_or_evals},{r.eta:.17g},"
                f"{r.objective:.17g}")
    return "\n".join(lines) + "\n"


def render_markdown(cells) -> str:
    """Per-cell summary table, solvers on adjacent rows for comparison."""
    lines = [
        "| beta | n | sigma | solver | mean time (s) | mean iters/evals "
        "| mean eta | max obj gap | status |",
        "|---|---|---|---|---|---|---|---|---|",
    ]
    for cell in cells:
        solvers = []
        for r in cell.records:
            if r.solver not in solvers:
                solvers.append(r.solver)
        for solver in solvers:
            bad = sum(1 for r in cell.solver_records(solver) if not r.converged)
            status = "ok" if bad == 0 else f"{bad} non-converged"
            lines.append(
                f"| {cell.beta:g} | {cell.n} | {cell.sigma:g} | {solver} "
                f"| {cell.mean_time(solver):.4e} "
                f"| {cell.mean_iters(solver):.1f} "
                f"| {cell.mean_eta(solver):.2e} "
                f"| {cell.max_objective_gap:.2e} | {status} |")
    return "\n".join(lines) + "\n"
