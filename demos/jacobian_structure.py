"""What the projector's derivative looks like.

The projection onto the ball is piecewise affine, and on each piece the
derivative has a tidy shape: a signed sort, then block averaging over
pooled coordinates (a diagonal-plus-low-rank projector), then a rank-one
correction that keeps the image on the ball's face.  This script builds
the implicit operator at a solved instance, materializes it, and checks
it against a finite-difference probe.

Run:  python3 demos/jacobian_structure.py
"""

import numpy as np

from owlball import (
    Instance,
    Weights,
    apply_ball_jacobian,
    ball_jacobian,
    project_ball,
)


def main():
    rng = np.random.default_rng(3)
    n = 9
    b = rng.standard_normal(n)
    lam = np.sort(np.abs(rng.standard_normal(n)))[::-1]
    w = Weights(lam)
    tau = 0.4 * float(np.dot(np.sort(np.abs(b))[::-1], lam))
    inst = Instance(b, w, tau)

    res = project_ball(inst)
    print(f"projected {n} coordinates in "
          f"{res.report.iterations} Newton iterations")

    # The combinatorial state at the solution: the blocks of the cone
    # projection (which sorted-difference constraints are tight) decide
    # the affine piece we are on.
    cone = res.report.cone
    print(f"cone blocks start at {cone.block_starts.tolist()} "
          f"(zero tail: {cone.zero_tail})")

    s = ball_jacobian(inst, res.report)
    dense = np.column_stack([apply_ball_jacobian(s, e) for e in np.eye(n)])

    np.set_printoptions(precision=3, suppress=True, linewidth=100)
    print("\ndense Jacobian (rows/cols in original coordinates):")
    print(dense)

    eigs = np.linalg.eigvalsh(0.5 * (dense + dense.T))
    print(f"\neigenvalues: {eigs.round(6)}")
    print("all are 0 or 1: on its affine piece the projector's "
          "derivative is itself an orthogonal projector.")

    # The rank-one correction exists to kill exactly one direction: the
    # weight vector pulled back through the signed sort.  Moving b that
    # way only slides the solution along the ball's face constraint.
    pulled_back = res.report.sort.apply_inverse(lam)
    print(f"\n||S (P^T lam)|| = "
          f"{np.linalg.norm(apply_ball_jacobian(s, pulled_back)):.3e}  "
          f"(annihilated by construction)")

    # The map is exactly affine near b, so central differences agree to
    # roundoff; the error grows like eps/h as h shrinks, not like h.
    u = rng.standard_normal(n)
    u /= np.linalg.norm(u)
    print("\nfinite-difference check (central differences):")
    for h in (1e-4, 1e-5, 1e-6):
        xp = project_ball(Instance(b + h * u, w, tau)).x
        xm = project_ball(Instance(b - h * u, w, tau)).x
        fd = (xp - xm) / (2.0 * h)
        err = np.max(np.abs(fd - apply_ball_jacobian(s, u)))
        print(f"  h = {h:.0e}:  max |FD - S u| = {err:.3e}")


if __name__ == "__main__":
    main()
