"""Correctness gate: O(n log n) certificates for every timed answer.

All checks use only the public ``owl_norm`` and ``dual_norm``.  The
thresholds sit far above the roundoff measured on correct answers
(at most ~5e-12 relative at n = 1e6 with heavy ties, ~1e-13 without)
and far below what a wrong answer gives (a solve off the true dual root
by one part in 1e6 already shows gaps of that size).  A check that
fails marks its op as failed; the op's time stays in the samples.
"""

from __future__ import annotations

import numpy as np

import owlball

# Relative objective gap the two solvers must agree to: the value
# ``owlball.bench`` enforces between its converged solvers.
GAP_TOL = 1e-10
# Relative certificate gaps (feasibility, duality, prox optimality).
CERT_TOL = 1e-9
# Jacobian idempotence and symmetry, relative to the probe norms.
JAC_TOL = 1e-9


def ball_certificate(inst, x) -> tuple[float, float]:
    """(|owl_norm(x) - tau| / tau, scaled duality gap) of a ball projection.

    At the projection, ``r = b - x`` lies in the normal cone of the ball
    at ``x``, so ``<r, x> = tau * dual_norm(r)``; the gap is that
    difference over ``tau * dual_norm(r)``.
    """
    feas = abs(owlball.owl_norm(x, inst.weights) - inst.tau) / inst.tau
    r = inst.b - x
    support = inst.tau * owlball.dual_norm(r, inst.weights)
    if support == 0.0:   # x == b, impossible for an infeasible b
        return feas, np.inf
    return feas, abs(support - float(np.dot(r, x))) / support


def ball_ok(inst, x) -> bool:
    feas, gap = ball_certificate(inst, x)
    return bool(np.all(np.isfinite(x))) and feas <= CERT_TOL and gap <= CERT_TOL


def objectives_agree(inst, x1, x2) -> bool:
    o1 = 0.5 * float(np.dot(x1 - inst.b, x1 - inst.b))
    o2 = 0.5 * float(np.dot(x2 - inst.b, x2 - inst.b))
    return abs(o1 - o2) / (1.0 + abs(o1) + abs(o2)) < GAP_TOL


def prox_ok(b, weights, mu, p) -> bool:
    """Optimality of ``p = prox_{mu owl_norm}(b)``.

    ``b - p`` must lie in ``mu`` times the dual-norm unit ball and attain
    the support value there: ``<b - p, p> = mu * owl_norm(p)``.
    """
    if not np.all(np.isfinite(p)):
        return False
    r = b - p
    if owlball.dual_norm(r, weights) > mu * (1.0 + CERT_TOL):
        return False
    support = mu * owlball.owl_norm(p, weights)
    return abs(float(np.dot(r, p)) - support) <= CERT_TOL * support


def jac_ok(apply, probes, images) -> bool:
    """Idempotence on the first probe and symmetry on adjacent pairs.

    ``apply`` is the Jacobian matvec, ``images[i] = apply(probes[i])``.
    """
    v0, s0 = probes[0], images[0]
    if np.linalg.norm(apply(s0) - s0) > JAC_TOL * np.linalg.norm(v0):
        return False
    for i in range(len(probes) - 1):
        u, v = probes[i], probes[i + 1]
        asym = float(np.dot(images[i], v)) - float(np.dot(u, images[i + 1]))
        if abs(asym) > JAC_TOL * np.linalg.norm(u) * np.linalg.norm(v):
            return False
    return True
