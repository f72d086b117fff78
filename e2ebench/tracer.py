"""Benchmark-side spans around calls into the library's public API.

The traced run patches a fixed table of public functions and methods
(one per layer boundary) with thin wrappers that record a span: name,
start, end, parent span and op id.  Spans stay in memory and are
written out when the run ends.  Nothing here touches ``repro.obs``:
the program's own tracing stays off, and an untraced run installs no
wrapper at all.

A span's name is ``<layer>.<call>``; its *self time* is its duration
minus the time its child spans cover.  Ops are the benchmark's unit of
measurement (a cold pass, a step, a serving round); each op's timed
sections are root spans named ``bench.op``.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

__all__ = ["Tracer", "install", "summarize_spans"]

ROOT = "bench.op"


class Tracer:
    """In-memory span recorder; records only while ``on`` is true."""

    def __init__(self):
        #: one ``[name, start, end, parent, op_id]`` row per span
        self.spans = []
        self.on = False
        self.op_id = -1
        self._stack = []

    def _begin(self, name):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(sid)
        self.spans.append([name, time.perf_counter(), None, parent, self.op_id])
        return sid

    def _end(self, sid):
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        if not self.on:
            yield
            return
        sid = self._begin(name)
        try:
            yield
        finally:
            self._end(sid)

    def wrap(self, fn, name):
        """``fn`` with a span around every call made while recording."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self._begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(sid)

        return traced


def install(tracer):
    """Patch the layer boundaries with span wrappers; returns an undo.

    ``build_solver``/``build_multi_solver`` are wrapped twice: the build
    itself is a ``kernels.solver_build`` span and the apply it returns
    records one ``kernels.apply`` span per call, which is how applies
    made deep inside the serving layer are timed.
    """
    import repro.apps as apps
    import repro.matrices as matrices
    import repro.solvers as solvers
    import repro.sparse.spmv as spmv
    from repro.core.javelin import JavelinILU
    from repro.resilience import ResilientFactor
    from repro.serve import workers

    table = [
        (matrices, "preorder_for_javelin", "ordering.preorder"),
        (JavelinILU, "setup", "core.setup"),
        (JavelinILU, "refactor", "core.refactor"),
        (JavelinILU, "factor", "core.factor"),
        (ResilientFactor, "setup", "resilience.setup"),
        (ResilientFactor, "refactor", "resilience.refactor"),
        (solvers, "gmres", "solvers.gmres"),
        (workers, "blocked_richardson", "solvers.richardson"),
        (spmv, "spmv_csr", "sparse.spmv"),  # CSRMatrix.matvec resolves it per call
        (workers, "spmv_csr", "sparse.spmv"),
        (workers.SolveService, "run", "serve.run"),
        (workers.SolveService, "update_matrix", "serve.update"),
        (workers.WorkerShard, "execute", "serve.execute"),
        (apps.AppSession, "step", "serve.step"),
        (apps.HeatStepper, "step", "apps.step"),
        (apps.HeatStepper, "matrix", "apps.matrix"),
    ]
    saved = []
    for owner, attr, name in table:
        orig = getattr(owner, attr)
        saved.append((owner, attr, orig))
        setattr(owner, attr, tracer.wrap(orig, name))
    for attr in ("build_solver", "build_multi_solver"):
        orig = getattr(JavelinILU, attr)
        saved.append((JavelinILU, attr, orig))
        setattr(JavelinILU, attr, _traced_builder(tracer, orig))

    def undo():
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)

    return undo


def _traced_builder(tracer, build):
    @functools.wraps(build)
    def traced(self):
        with tracer.span("kernels.solver_build"):
            apply = build(self)
        return tracer.wrap(apply, "kernels.apply")

    return traced


def summarize_spans(spans):
    """Per-op and per-name totals from closed spans.

    Returns ``(ops, by_name)``: ``ops[op_id]`` holds the op's root wall
    time and per-layer self time, where layer ``bench`` is the time no
    layer span covers; ``by_name[name]`` holds the call count, total and
    self seconds.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    ops, by_name = {}, {}
    for sid, (name, start, end, _parent, op) in enumerate(spans):
        dur = end - start
        self_t = dur - covered[sid]
        rec = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        rec["calls"] += 1
        rec["total_s"] += dur
        rec["self_s"] += self_t
        o = ops.setdefault(op, {"wall_s": 0.0, "layers": {}})
        if name == ROOT:
            o["wall_s"] += dur
        layer = name.split(".", 1)[0]
        o["layers"][layer] = o["layers"].get(layer, 0.0) + self_t
    return ops, by_name
