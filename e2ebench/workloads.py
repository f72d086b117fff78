"""The three benchmark workloads, driven through the public API only.

Each workload builds its inputs from the seed in ``setup``, and runs one
*op* per ``op`` call: the part users wait for is timed inside
``clock.timed()`` sections, and every solution is then checked against
the bench's own residual ``‖b − A x‖ / ‖b‖`` outside the timed part.

* ``oneshot``  — one op is one cold pass (matrix in → solution out) over
  four suite matrices;
* ``timestep`` — one op is one implicit heat step: a value-only ILU(1)
  refactor plus a Richardson solve through apps → serve → resilience;
* ``serve``    — one op is one ``SolveService.run`` over a fixed
  open-loop request trace with seeded right-hand sides, replayed on warm
  factor caches.

See ``README.md`` next to this file for why each was chosen.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

import repro.apps as apps
import repro.core as core
import repro.matrices as matrices
import repro.serve as serve
import repro.solvers as solvers
from repro.kernels import default_cache

from tracer import ROOT

__all__ = ["WORKLOADS", "OpResult", "Clock", "reference_kernel"]

TOL = 1e-8
#: the serve traffic shape (arrivals, keys, solvers) is one fixed trace,
#: so every seed serves the same work; the seed draws the right-hand sides
SERVE_TRACE_SEED = 0

#: the four oneshot matrices: few wide levels (thermal2) through many
#: narrow ones (af_shell3) and a large ER lower stage (TSOPF)
ONESHOT_MATRICES = ("thermal2", "scircuit", "af_shell3", "TSOPF_RS_b300_c2")

SIZES = {
    "full": {
        "oneshot_scale": 1.0,
        "heat_nx": 48,
        "serve_patterns": ("grid2d-32", "grid2d-48", "grid2d-64", "convect2d-48", "circuit-2000"),
        "serve_requests": 50,
    },
    # for the benchmark's own tests: same code paths, seconds per run
    "tiny": {
        "oneshot_scale": 0.05,
        "heat_nx": 12,
        "serve_patterns": ("grid2d-8", "grid2d-12", "grid2d-16", "convect2d-12", "circuit-150"),
        "serve_requests": 20,
    },
}


@dataclass
class OpResult:
    """What one op did: items served, failures, solution digest, counts."""

    items: int = 0
    failed: int = 0
    iters: int = 0
    digest: str = ""
    counts: dict = field(default_factory=dict)


def reference_kernel():
    """Fixed work that tracks how fast the shared CPU runs right now.

    A blend of the program's two kinds of work: a pure-Python integer
    loop and small-NumPy calls (fancy indexing, ``searchsorted``).
    Sampled untimed around every timed section (see :class:`Clock` and
    README.md, "Machine speed").  Returns the seconds it took.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(90_000):
        acc += (i * i) % 7
    v = np.arange(64.0)
    idx = np.arange(0, 64, 3)
    total = 0.0
    for i in range(800):
        total += v[idx].sum() + np.searchsorted(v, float(i % 60))
    if acc + total <= 0:
        raise ArithmeticError("reference kernel miscomputed")
    return time.perf_counter() - t0


class Clock:
    """Accumulates the timed sections of one op; each is a root span.

    ``wall`` is the measured time.  ``nominal`` rescales each section to
    the speed at which the reference kernel takes ``ref_nominal``
    seconds, using the mean of the (untimed) reference samples taken
    just before and just after it.  Sections are kept short (one library
    call or one serving round), so the adjacent samples see the same
    machine speed as the section does.
    """

    def __init__(self, tracer, refs, ref_nominal):
        self.tracer = tracer
        self.refs = refs
        self.ref_nominal = ref_nominal
        self.wall = 0.0
        self.nominal = 0.0
        self._last_ref = None

    @contextmanager
    def timed(self):
        before = self._last_ref if self._last_ref is not None else self._sample()
        with self.tracer.span(ROOT):
            t0 = time.perf_counter()
            try:
                yield
            finally:
                dt = time.perf_counter() - t0
        after = self._last_ref = self._sample()
        self.wall += dt
        self.nominal += dt * self.ref_nominal / (0.5 * (before + after))

    def _sample(self):
        ref = reference_kernel()
        self.refs.append(ref)
        return ref


def _scipy(A):
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=(A.n_rows, A.n_cols))


def _rel_residual(A_sp, x, b):
    return float(np.linalg.norm(b - A_sp @ x) / np.linalg.norm(b))


def _digest(arrays):
    h = hashlib.blake2b(digest_size=16)
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=np.float64).tobytes())
    return h.hexdigest()


def _structure(ilu):
    st = ilu.stats()
    return {
        "levels": int(st["n_levels"]),
        "lower_rows": int(st["n_lower_rows"]),
        "factor_nnz": int(ilu.F.nnz),
    }


def _cache_counts(before):
    after = default_cache().stats()
    return {
        "cache_hits": after["hits"] - before["hits"],
        "cache_misses": after["misses"] - before["misses"],
    }


class Oneshot:
    """Cold one-shot solves: preorder → setup → factor → build → GMRES."""

    replays = True  # every pass solves the same inputs

    def __init__(self, seed, size):
        self.seed = seed
        self.scale = SIZES[size]["oneshot_scale"]

    def setup(self, clock):
        self.inputs = []
        for i, name in enumerate(ONESHOT_MATRICES):
            with clock.timed():
                A = matrices.build_matrix(name, scale=self.scale)
                b = np.random.default_rng([self.seed, i]).standard_normal(A.n_rows)
            self.inputs.append((name, A, b))
        return {"inputs": _digest(b for _, _, b in self.inputs), "warm": ""}

    def op(self, clock):
        res = OpResult()
        self.structure = {}
        solutions = []
        for name, A, b in self.inputs:
            default_cache().clear()  # fully cold: no symbolic reuse across matrices
            before = default_cache().stats()
            res.items += 1
            try:
                # one section per library call keeps sections short
                with clock.timed():
                    B = matrices.preorder_for_javelin(A)
                with clock.timed():
                    ilu = core.JavelinILU().setup(B)
                with clock.timed():
                    ilu.factor()
                with clock.timed():
                    M = ilu.build_solver()
                with clock.timed():
                    out = solvers.gmres(B, b, M=M, tol=TOL)
            except Exception as e:  # the op boundary: record and keep measuring
                res.failed += 1
                print(f"oneshot {name}: {type(e).__name__}: {e}", file=sys.stderr)
                continue
            for k, v in _cache_counts(before).items():
                res.counts[k] = res.counts.get(k, 0) + v
            res.iters += out.iterations
            if not (out.converged and _rel_residual(_scipy(B), out.x, b) <= TOL):
                res.failed += 1
            self.structure[name] = _structure(ilu)
            solutions.append(out.x)
        res.digest = _digest(solutions)
        return res


class Timestep:
    """Implicit heat stepping: value-only ILU(1) refactor + Richardson."""

    replays = False  # each step advances the state

    def __init__(self, seed, size):
        self.seed = seed
        self.nx = SIZES[size]["heat_nx"]

    def setup(self, clock):
        with clock.timed():
            self.stepper = apps.HeatStepper(
                self.nx,
                seed=self.seed,
                options=core.JavelinOptions(fill_level=1),
                staleness=serve.StalenessPolicy("refactor"),
            )
        u0 = self.stepper.u
        # the first step cold-builds the factor; later steps only refactor
        with clock.timed():
            rec = self.stepper.step()
        if rec.outcome != "served":
            raise RuntimeError(f"warm-up step ended {rec.outcome!r}")
        session = self.stepper.session
        entry = session.shard.cache.get(session.service.fingerprints[session.key])
        self.structure = {"heat": _structure(entry.factor.ilu)}
        return {"inputs": _digest([u0]), "warm": _digest([rec.x])}

    def op(self, clock):
        hs = self.stepper
        b = hs.u
        before = default_cache().stats()
        n_cold = hs.session.shard.n_cold
        try:
            with clock.timed():
                rec = hs.step()
        except Exception as e:  # the op boundary: record and keep measuring
            print(f"timestep: {type(e).__name__}: {e}", file=sys.stderr)
            return OpResult(items=1, failed=1)
        A = hs.session.service.matrices[hs.session.key]
        ok = rec.outcome == "served" and _rel_residual(_scipy(A), rec.x, b) <= TOL
        counts = _cache_counts(before)
        counts["cold_builds"] = hs.session.shard.n_cold - n_cold
        return OpResult(
            items=1,
            failed=0 if ok else 1,
            iters=int(rec.iterations),
            digest=_digest([rec.x]),
            counts=counts,
        )


class Serve:
    """Warm batched serving of an open-loop Poisson request stream."""

    replays = True  # every round replays the same stream

    def __init__(self, seed, size):
        self.seed = seed
        self.patterns = SIZES[size]["serve_patterns"]
        self.n_requests = SIZES[size]["serve_requests"]

    def setup(self, clock):
        with clock.timed():
            self._build_service()
        # warm every factor cache with one request per pattern
        rng = np.random.default_rng([self.seed, len(self.patterns)])
        results = []
        for i, k in enumerate(self.patterns):
            b = rng.standard_normal(self.service.matrices[k].n_rows)
            req = serve.SolveRequest(request_id=i, tenant="warm", matrix_key=k, b=b)
            with clock.timed():
                results += self.service.run([req])
        if any(r.outcome != "served" for r in results):
            raise RuntimeError("warm-up request not served")
        self.mats_sp = {k: _scipy(A) for k, A in self.service.matrices.items()}
        self.structure = {}
        for k in self.patterns:
            shard = self.service.shards[self.service.shard_of(k)]
            entry = shard.cache.get(self.service.fingerprints[k])
            self.structure[k] = _structure(entry.factor.ilu)
        stream = [np.asarray([r.arrival_time for r in self.requests])]
        return {
            "inputs": _digest(stream + [r.b for r in self.requests]),
            "warm": _digest([r.x for r in results]),
        }

    def _build_service(self):
        mats = serve.build_matrices(self.patterns)
        spec = serve.WorkloadSpec(
            seed=SERVE_TRACE_SEED,
            n_requests=self.n_requests,
            rate=400.0,
            patterns=self.patterns,
            zipf_s=1.1,
            solvers=("richardson", "gmres"),
            solver_weights=(0.8, 0.2),
            tol=TOL,
            # far above any virtual latency: outcomes reflect the
            # numerics, not the hand-set CostModel charges
            deadline_lo=1e6,
            deadline_hi=2e6,
        )
        streams = {
            k: matrices.rhs_stream(A.n_rows, drift=spec.drift, seed=[self.seed, i])
            for i, (k, A) in enumerate(mats.items())
        }
        self.requests = [
            dataclasses.replace(r, b=next(streams[r.matrix_key]))
            for r in serve.generate_requests(spec, mats)
        ]
        # a queue that holds the whole stream never rejects
        self.service = serve.SolveService(
            mats,
            n_shards=2,
            capacity=self.n_requests,
            batch_policy=serve.BatchPolicy(max_batch=16, max_wait=0.01),
        )

    def op(self, clock):
        svc = self.service
        before = default_cache().stats()
        n_cold = sum(s.n_cold for s in svc.shards)
        try:
            with clock.timed():
                results = svc.run(self.requests)
        except Exception as e:  # the op boundary: record and keep measuring
            print(f"serve: {type(e).__name__}: {e}", file=sys.stderr)
            return OpResult(items=self.n_requests, failed=self.n_requests)
        failed = 0
        for req, r in zip(self.requests, results):
            ok = (
                r.outcome == "served"
                and r.x is not None
                and _rel_residual(self.mats_sp[req.matrix_key], r.x, req.b) <= TOL
            )
            failed += 0 if ok else 1
        summ = serve.summarize(results)
        counts = _cache_counts(before)
        counts["cold_builds"] = sum(s.n_cold for s in svc.shards) - n_cold
        counts["batch_width"] = float(summ["mean_batch_size"])
        counts["virtual_p50_s"] = float(summ["p50_latency"])
        counts["virtual_p99_s"] = float(summ["p99_latency"])
        return OpResult(
            items=len(results),
            failed=failed,
            iters=int(sum(r.iterations for r in results)),
            digest=_digest([r.x for r in results if r.x is not None]),
            counts=counts,
        )


WORKLOADS = {"oneshot": Oneshot, "timestep": Timestep, "serve": Serve}
