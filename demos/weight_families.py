"""Newton steps, projection work and time per weight family.

The paper's Newton method ends in a handful of steps whatever n is, but
the count depends on the weights: the OSCAR and SLOPE families take more
steps than sorted |N(0,1)| weights.  Every step after the first projects
only the positive blocks of the projection at the last point above the
root, so what a step costs depends on the family too.  For each family
and radius this script prints the Newton steps of `project_ball`, the
entries its projections took (the sum of `StepRecord.projected`) and its
best wall time over a few runs.

The families, for i = 1..n:

    OSCAR        linspace(2, 1, n)
    SLOPE        sqrt(2 log(n / i)) + 1e-3
    sorted |N|   sorted |N(0, 1)|
    top half     1 on the first n/2 coordinates, 0 after

`b` is N(0, 1) and the radius is beta * owl_norm(b).

Run:  python3 demos/weight_families.py [n] [runs]     (default 100000 5)
"""

import sys
import time

import numpy as np

from owlball import Instance, Weights, owl_norm, project_ball

BETAS = (0.01, 0.1)


def families(n, rng):
    i = np.arange(1, n + 1)
    return {
        "OSCAR": np.linspace(2.0, 1.0, n),
        "SLOPE": np.sqrt(2.0 * np.log(n / i)) + 1e-3,
        "sorted |N|": np.sort(np.abs(rng.standard_normal(n)))[::-1],
        "top half": np.where(i <= n // 2, 1.0, 0.0),
    }


def main(n=100_000, runs=5):
    rng = np.random.default_rng(2020)
    b = rng.standard_normal(n)
    print(f"n = {n}, best of {runs} runs")
    print(f"{'weights':>10} {'beta':>5} {'steps':>5} {'projected':>10} {'ms':>8}")
    for name, lam in families(n, rng).items():
        weights = Weights(lam)
        for beta in BETAS:
            inst = Instance(b, weights, beta * owl_norm(b, weights))
            best = np.inf
            for _ in range(runs):
                t0 = time.perf_counter()
                res = project_ball(inst)
                best = min(best, time.perf_counter() - t0)
            steps = res.report.step_trace
            projected = sum(step.projected for step in steps)
            print(f"{name:>10} {beta:5.2f} {len(steps):5d} {projected:10d} {best * 1e3:8.2f}")


if __name__ == "__main__":
    main(*(int(float(arg)) for arg in sys.argv[1:3]))
