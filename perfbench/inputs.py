"""Workload recipes and the benchmark's own input generator.

Every instance is drawn from a counter-based stream: ``Philox`` keyed by
``SeedSequence(seed, spawn_key=(workload_key, rep))``, where
``workload_key`` is the CRC-32 of the workload name.  A (seed, workload,
rep) triple therefore names one instance, whatever order instances are
drawn in.  The radius and the prox parameter are computed here from the
sorted magnitudes, not by library calls, so a change to the library
cannot move the inputs.

Draw order within one stream (part of the reproducibility contract):
``b`` (n standard normals), then the weights when they are random, then
the ten Jacobian probe vectors (n standard normals each).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

import owlball

# Radius fractions tau = beta * owl_norm(b); instance ``rep`` uses
# BETAS[rep % 3], so every beta is equally represented in whole cycles.
BETAS = (0.01, 0.1, 0.8)

# prox parameter as a share of dual_norm(b): below 1, so the prox is
# never the zero vector, and far from 0, so it shrinks many entries.
MU_FRACTION = 0.5

# Matvecs per Jacobian op.
PROBES = 10


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    weights: str     # "gauss" (sorted |N(0,1)|) or "plateau" (cycled families)
    round_b: int | None   # decimals b is rounded to, or None
    cycle: int       # instances per full cycle of (beta, weight family)
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("gauss-1e6", 1_000_000, "gauss", None, 3,
             "n=1e6, b~N(0,1), w=sorted |N(0,1)|, tau=beta*owl(b), beta in "
             "{.01,.1,.8}: headline size; the signed sort and cone projections "
             "dominate, Newton takes 2-3 steps"),
    Workload("ties-1e6", 1_000_000, "gauss", 2, 3,
             "gauss-1e6 with b rounded to 2 decimals: long tied runs stress the "
             "stable-sort tie-break and the PAVA tie repair"),
    Workload("plateau-1e5", 100_000, "plateau", None, 12,
             "n=1e5, b~N(0,1), w cycles L1/Linf/top-half ones/sorted |N| on the "
             "first tenth, beta in {.01,.1,.8}: Newton globalization and "
             "line-search trials do the work"),
    Workload("batch-1e3", 1_000, "gauss", None, 3,
             "n=1e3 with the gauss-1e6 law, thousands of instances a run: they "
             "fit in cache, so fixed per-call Python cost dominates and kernels "
             "barely matter"),
)}


@dataclass(frozen=True)
class Case:
    """One generated instance and the extra inputs its ops need."""

    rep: int
    inst: owlball.Instance
    mu: float
    probes: np.ndarray    # (PROBES, n) vectors for the Jacobian matvecs


def stream(seed: int, workload: str, rep: int) -> np.random.Generator:
    key = zlib.crc32(workload.encode())
    ss = np.random.SeedSequence(seed, spawn_key=(key, rep))
    return np.random.Generator(np.random.Philox(ss))


def _plateau_weights(family: int, n: int, rng) -> np.ndarray:
    lam = np.zeros(n)
    if family == 0:          # constant: the L1 norm
        lam[:] = 1.0
    elif family == 1:        # leading only: the Linf norm
        lam[0] = 1.0
    elif family == 2:        # top half ones, then zeros
        lam[: n // 2] = 1.0
    else:                    # sorted |N| on the first tenth, then zeros
        head = np.abs(rng.standard_normal(max(n // 10, 1)))
        lam[: head.size] = np.sort(head)[::-1]
    return lam


def make_case(wl: Workload, seed: int, rep: int) -> Case:
    """Draw instance ``rep`` of workload ``wl`` for ``seed``."""
    rng = stream(seed, wl.name, rep)
    b = rng.standard_normal(wl.n)
    if wl.round_b is not None:
        b = np.round(b, wl.round_b)
    if wl.weights == "gauss":
        lam = np.sort(np.abs(rng.standard_normal(wl.n)))[::-1]
    else:
        lam = _plateau_weights(rep % 4, wl.n, rng)
    probes = rng.standard_normal((PROBES, wl.n))

    mags = np.sort(np.abs(b))[::-1]
    tau = BETAS[rep % 3] * float(np.dot(mags, lam))
    dual = float(np.max(np.cumsum(mags) / np.cumsum(lam)))  # cumsum(lam) >= lam[0] > 0
    weights = owlball.Weights(lam)
    inst = owlball.Instance(b, weights, tau)
    return Case(rep=rep, inst=inst, mu=MU_FRACTION * dual, probes=probes)
