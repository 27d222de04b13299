"""Newton against bracketing on the shared scalar dual.

Both solvers reduce the projection to a one-dimensional problem; the
difference is what they know about it.  The bracketing baseline only
evaluates a monotone function of the radius multiplier and must creep
toward machine precision.  The semismooth Newton iteration also reads
off a generalized derivative, identifies the active affine piece, and
lands on the exact solution after a handful of steps.

This script runs both on the same instances at two sizes and prints the
benchmark table (the same one `owlball bench` renders).

Run:  python3 demos/solver_race.py
"""

import numpy as np

from owlball.bench import ExperimentConfig, render_markdown, run_experiment


def main():
    cfg = ExperimentConfig(
        n_list=(100_000, 1_000_000),
        sigma_list=(1.0,),
        beta_list=(1e-2, 0.1, 0.8),
        reps=2,
        seed=7,
        solvers=("ssn", "rootfind"),
        eps=1e-12,
    )
    cells = run_experiment(cfg)
    print(render_markdown(cells))

    # Aggregate view: median time per solver at each size, and the
    # growth across a 10x size jump (close to 10x for both: each is
    # O(n) per step, Newton just takes far fewer steps).
    n_small, n_big = cfg.n_list
    for solver in cfg.solvers:
        times = {n: [] for n in cfg.n_list}
        for cell in cells:
            times[cell.n].extend(
                r.time_s for r in cell.records if r.solver == solver)
        t_small = float(np.median(times[n_small]))
        t_big = float(np.median(times[n_big]))
        print(f"{solver:>9}: median {t_small * 1e3:7.2f} ms at n={n_small}, "
              f"{t_big * 1e3:7.2f} ms at n={n_big}, "
              f"growth x{t_big / t_small:.1f}")


if __name__ == "__main__":
    main()
