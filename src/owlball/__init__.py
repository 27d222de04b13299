"""Fast Euclidean projection onto ordered weighted L1 norm balls.

The ordered weighted L1 norm pairs the sorted magnitudes of a vector
with a nonincreasing weight vector; its ball interpolates between the
L1 ball (constant weights) and the L-infinity dual (a single leading
weight).  Projecting onto it reduces to an isotonic subproblem whose
scalar dual is solved by a semismooth Newton method in O(n) per
iteration and a handful of iterations in practice.

Typical use::

    import numpy as np
    from owlball import Instance, Weights, project_ball

    w = Weights(np.linspace(2.0, 1.0, 5))
    inst = Instance(np.random.randn(5), w, tau=1.5)
    x = project_ball(inst).x

Everything else (the cone projection, the bare Newton solver, signed
sorts, the dual gradient, the block curvature) stays importable from its
submodule; the brute-force oracles and the test-only references (the
tight set of a cone projection, its block values and the cone
Jacobian's matvec) live in the test suite (``tests/oracle.py``).
"""

from .core import Instance, Weights, owl_norm
from .jacobian import BallJacobian, apply_ball_jacobian, ball_jacobian
from .projector import ProjectionResult, project_ball, prox_owl
from .rootfind import RootfindReport, dual_norm, solve_root
from .ssn import SsnParams, SsnReport

__version__ = "0.1.0"

__all__ = [
    "Weights",
    "Instance",
    "owl_norm",
    "dual_norm",
    "project_ball",
    "ProjectionResult",
    "prox_owl",
    "solve_root",
    "RootfindReport",
    "SsnParams",
    "SsnReport",
    "ball_jacobian",
    "apply_ball_jacobian",
    "BallJacobian",
    "__version__",
]
