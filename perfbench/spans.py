"""Timing spans around the library's functions, installed where callers look them up.

A :class:`Tracer` replaces each name in ``TARGETS`` with a wrapper that
records a span (layer, parent span, start and end in ``perf_counter_ns``)
and puts the original back when the ``installed()`` block ends.  The
benchmark opens one root span per timed op (``op.ssn`` and so on), so
every span can be traced up to the op that caused it.  Spans stay in
memory; :func:`summarize` turns them into per-layer totals at the end.

A target that no longer exists (a later change removed the name) is
skipped and listed in ``Tracer.missing``: its layer then shows 0 calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

# (owner, attribute, layer).  The owner is the namespace the caller reads
# the name from: the package for the benchmark's own calls, the calling
# module for calls inside the library, ``module:Class`` for methods.
TARGETS = (
    ("owlball", "Weights", "core.instance"),
    ("owlball", "Instance", "core.instance"),
    ("owlball", "project_ball", "projector.project_ball"),
    ("owlball", "solve_root", "rootfind.solve_root"),
    ("owlball", "prox_owl", "projector.prox_owl"),
    ("owlball", "ball_jacobian", "jacobian.ball_jacobian"),
    ("owlball", "apply_ball_jacobian", "jacobian.apply_ball_jacobian"),
    ("owlball.projector", "signed_sort", "core.signed_sort"),
    ("owlball.projector", "solve", "ssn.solve"),
    ("owlball.projector", "project_cone", "isotonic.project_cone"),
    ("owlball.ssn", "project_cone", "isotonic.project_cone"),
    ("owlball.ssn", "cone_jacobian", "jacobian.cone_jacobian"),
    ("owlball.ssn", "curvature", "jacobian.curvature"),
    ("owlball.rootfind", "signed_sort", "core.signed_sort"),
    ("owlball.rootfind", "project_cone", "isotonic.project_cone"),
    ("owlball.jacobian", "signed_sort", "core.signed_sort"),
    ("owlball.jacobian", "project_cone", "isotonic.project_cone"),
    ("owlball.core:SignedSort", "apply_inverse", "core.apply_inverse"),
)

# Work counts read off a layer's public result, stored on its span.
COUNTS = {
    "isotonic.project_cone": lambda out: out.num_blocks / out.n,
}

OP_PREFIX = "op."


def _owner(path: str):
    module, _, cls = path.partition(":")
    try:
        obj = importlib.import_module(module)
    except ImportError:
        return None
    return getattr(obj, cls, None) if cls else obj


class Tracer:
    """Spans of one traced run, kept as parallel lists."""

    def __init__(self):
        self.layer: list[str] = []
        self.parent: list[int] = []
        self.start: list[int] = []
        self.end: list[int] = []
        self.count: dict[int, float] = {}
        self.missing: set[str] = set()
        self._open: list[int] = []

    def _begin(self, layer: str) -> int:
        idx = len(self.layer)
        self.layer.append(layer)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0)
        self._open.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def _finish(self, idx: int) -> None:
        self.end[idx] = time.perf_counter_ns()
        self._open.pop()

    @contextmanager
    def span(self, layer: str):
        idx = self._begin(layer)
        try:
            yield
        finally:
            self._finish(idx)

    def _wrap(self, fn, layer: str):
        count = COUNTS.get(layer)

        def traced(*args, **kwargs):
            idx = self._begin(layer)
            try:
                out = fn(*args, **kwargs)
            finally:
                self._finish(idx)
            if count is not None:
                self.count[idx] = count(out)
            return out

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        saved = []
        try:
            for path, attr, layer in TARGETS:
                owner = _owner(path)
                fn = getattr(owner, attr, None) if owner is not None else None
                if fn is None:
                    self.missing.add(f"{path}.{attr}")
                    continue
                saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(fn, layer))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)


class Summary:
    """Per-layer totals over the spans of a :class:`Tracer`.

    ``calls``, ``busy_ns`` and ``self_ns`` are keyed by layer and cover
    every span.  ``op_calls[(op, layer)]`` counts the spans of ``layer``
    under root op ``op``.  ``module_busy_ns`` and ``module_self_ns`` are
    keyed by module (the layer's first component) and cover spans inside
    ops only; busy time counts a span only when no enclosing span belongs
    to the same module, so nested calls are not counted twice.
    """

    def __init__(self, tr: Tracer):
        n = len(tr.layer)
        dur = [tr.end[i] - tr.start[i] for i in range(n)]
        child = [0] * n
        for i in range(n):
            if tr.parent[i] >= 0:
                child[tr.parent[i]] += dur[i]
        self.calls: Counter = Counter()
        self.busy_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.op_calls: Counter = Counter()
        self.module_busy_ns: Counter = Counter()
        self.module_self_ns: Counter = Counter()
        self.counts: dict[str, list[float]] = defaultdict(list)
        for i in range(n):
            layer = tr.layer[i]
            own = dur[i] - child[i]
            self.calls[layer] += 1
            self.busy_ns[layer] += dur[i]
            self.self_ns[layer] += own
            if i in tr.count:
                self.counts[layer].append(tr.count[i])
            module = layer.partition(".")[0]
            outermost = True
            j = tr.parent[i]
            root = i
            while j >= 0:
                if tr.layer[j].partition(".")[0] == module:
                    outermost = False
                root = j
                j = tr.parent[j]
            op = tr.layer[root]
            if root == i or not op.startswith(OP_PREFIX):
                continue
            self.op_calls[(op, layer)] += 1
            self.module_self_ns[module] += own
            if outermost:
                self.module_busy_ns[module] += dur[i]
