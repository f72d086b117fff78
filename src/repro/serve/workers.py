"""Worker shards and the deterministic solve-service core.

The service is a discrete-event simulation of a serving fleet with
*real numerics*: solutions, iteration counts and residuals come from
actually running the preconditioned solves (through the multi-RHS
level-batched kernels), while *time* is virtual — a
:class:`CostModel` charges each factorization and solve a
deterministic cost derived from the matrix structure and the work
performed, and a :class:`~repro.resilience.FaultPlan` perturbs those
charges (stragglers, spin faults, dropped completion publishes) without
ever touching the numbers.  The same seed therefore replays the same
run bit-for-bit, which is what the acceptance tests assert.

Shape of the core loop (:meth:`SolveService.run`, the package's only
serving event loop):

1. advance the virtual clock to the next event — an arrival, a worker
   state change, or a batch-close time — and advance the workers to it;
2. admit arrivals through the bounded
   :class:`~repro.serve.queue.AdmissionQueue` (displaced requests
   terminate immediately with a ``rejected`` outcome);
3. for each idle worker, close ready batches
   (:class:`~repro.serve.batcher.MicroBatcher`) for the groups it owns
   and start them — on one machine, back-to-back.

:class:`~repro.cluster.ClusterService` reuses the loop and overrides
only the worker hooks: who owns a key, when a worker is idle, what
starting a batch means, and which extra events exist.

Each :class:`WorkerShard` owns a private pattern-keyed
:class:`~repro.serve.factor_cache.FactorCache`: a warm hit is pure
solve work; a cold miss runs the
:class:`~repro.resilience.ResilientFactor` chain under the batch's
deadline budget, demoting the factorization tier (fill level, shift
attempts) when the budget is tight.

This module is the one place in ``serve/`` allowed to hold a lock
(JAV002): :meth:`SolveService.submit` may be called from other
threads, so the inbox hand-off is serialized; everything downstream of
:meth:`SolveService.run` is single-threaded and deterministic.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

from ..core.javelin import JavelinOptions
from ..kernels.cache import matrix_fingerprint, pattern_fingerprint
from ..obs import spans as _spans
from ..resilience import ResilientFactor, RetryPolicy
from ..sparse import spmv_csr
from .batcher import BatchPolicy, MicroBatcher
from .factor_cache import FactorCache, FactorEntry
from .queue import AdmissionQueue
from .request import RequestResult, SolveRequest
from .staleness import StalenessPolicy

__all__ = ["CostModel", "WorkerShard", "SolveService", "blocked_richardson", "SOLVERS"]

#: solvers the service accepts; only "richardson" is column-separable
#: (batchable) — the Krylov methods run per-request
SOLVERS = ("richardson", "gmres", "cg", "bicgstab")


@dataclass(frozen=True)
class CostModel:
    """Virtual-time charges for factor and solve work.

    Mirrors where the real implementation spends: a triangular sweep
    pays a fixed dispatch cost per level (``level_pass``) plus a
    per-entry cost per column (``entry_op``) — so the model, like the
    real kernels, rewards batching by amortizing the level term across
    a block's columns.  ``est_iters`` is the iteration guess used for
    deadline-pressure estimates before a solve has run.
    """

    factor_per_nnz: float = 4e-6
    #: value-only numeric refactor: no pattern analysis, no level-set
    #: construction, no schedule planning — the symbolic products are
    #: cache hits, so the charge is well under the cold rate
    refactor_per_nnz: float = 1.5e-6
    level_pass: float = 4e-6
    entry_op: float = 6e-9
    spmv_entry: float = 4e-9
    iteration_overhead: float = 2e-6
    batch_overhead: float = 2e-5
    est_iters: int = 25

    def factor_cost(self, nnz, fill_level=0):
        """Setup charge for one factorization at the given fill tier."""
        return self.factor_per_nnz * float(nnz) * (1.0 + float(fill_level))

    def refactor_cost(self, nnz, fill_level=0):
        """Charge for a value-only refactor of an already-analyzed pattern."""
        return self.refactor_per_nnz * float(nnz) * (1.0 + float(fill_level))

    def solve_cost(self, n_levels, nnz, passes, col_iters, sync_points=None):
        """Charge for one (possibly batched) iterative solve.

        ``passes`` iterations swept the levels once each (shared by
        every active column — the batching win); ``col_iters`` is the
        sum of per-column iteration counts (per-entry work scales with
        it).  ``sync_points`` overrides the per-pass synchronization
        count — the historical ``2 × n_levels`` of the level-set
        schedulers — so superstep/elastic/syncfree batches are priced
        by their actual sync economy (:func:`repro.sched.effective_sync_passes`).
        """
        if sync_points is None:
            sync_points = 2.0 * float(n_levels)
        per_pass = self.iteration_overhead + float(sync_points) * self.level_pass
        per_col_iter = float(nnz) * (2.0 * self.entry_op + self.spmv_entry)
        return self.batch_overhead + float(passes) * per_pass + float(col_iters) * per_col_iter

    def estimate_solve(self, n_levels, nnz, k):
        """A-priori estimate for deadline pressure (``est_iters`` guess)."""
        return self.solve_cost(n_levels, nnz, self.est_iters, self.est_iters * int(k))


# ----------------------------------------------------------------------
# batched numeric core
# ----------------------------------------------------------------------
def blocked_richardson(A, entry, B, tol, maxiter):
    """Preconditioned Richardson on a block of right-hand sides.

    ``x ← x + M⁻¹ (b - A x)`` per column, with the preconditioner
    applied to all active columns at once through ``entry.apply_multi``
    (the multi-RHS level-batched sweeps).  The iteration is
    column-separable — each column's float sequence is identical to a
    1-RHS run of the same code — so batching changes throughput, never
    results.  A converged column freezes (is dropped from the active
    set) exactly as its solo run would have stopped.

    Breakdown protocol: a non-finite preconditioner output on a column
    whose residual was finite means the factor itself is poisoned —
    every column sees it (the bad factor entries multiply all columns
    alike), so the entry's resilience chain advances once
    (``resetup``) and all unfinished columns restart from zero,
    exactly as each solo run would.  A column whose own residual went
    non-finite (overflow divergence) is marked broken alone.  A second
    poisoning marks the remaining columns broken — every request still
    terminates.
    """
    B = np.asarray(B, dtype=np.float64)
    n, k = B.shape
    X = np.zeros((n, k))
    iters = np.zeros(k, dtype=np.int64)
    resid = np.full(k, math.nan)
    converged = np.zeros(k, dtype=bool)
    broken = np.zeros(k, dtype=bool)
    bnorm = np.zeros(k)
    active = []
    for j in range(k):
        bn = float(np.linalg.norm(B[:, j]))
        bnorm[j] = bn
        if not math.isfinite(bn):
            broken[j] = True
        elif bn == 0.0:
            converged[j] = True
            resid[j] = 0.0
        else:
            active.append(j)
    R = B.copy()
    restarts_left = 1
    restarts = 0
    passes = 0
    col_iters = 0
    it = 0
    while active and it < maxiter:
        it += 1
        passes += 1
        col_iters += len(active)
        Z = entry.apply_multi(R[:, active])
        bad = [j for i, j in enumerate(active) if not np.all(np.isfinite(Z[:, i]))]
        if bad:
            poisoned = [j for j in bad if np.all(np.isfinite(R[:, j]))]
            if poisoned and restarts_left:
                # factor-global poisoning: demote the chain once and
                # restart every unfinished column from zero
                restarts_left -= 1
                restarts += 1
                entry.factor.resetup()
                entry.refresh_applies()
                for j in active:
                    X[:, j] = 0.0
                    R[:, j] = B[:, j]
                    iters[j] = 0
                it = 0
                continue
            for j in bad:
                broken[j] = True
                iters[j] = it
            keep = [i for i, j in enumerate(active) if j not in set(bad)]
            Z = Z[:, keep]
            active = [active[i] for i in keep]
            if not active:
                break
        X[:, active] += Z
        finished = set()
        for j in active:
            r = B[:, j] - spmv_csr(A, X[:, j])
            R[:, j] = r
            rel = float(np.linalg.norm(r)) / bnorm[j]
            iters[j] = it
            resid[j] = rel
            if not math.isfinite(rel):
                broken[j] = True
                finished.add(j)
            elif rel <= tol:
                converged[j] = True
                finished.add(j)
        if finished:
            active = [j for j in active if j not in finished]
    return {
        "X": X,
        "iterations": iters,
        "residual": resid,
        "converged": converged,
        "broken": broken,
        "restarts": restarts,
        "passes": passes,
        "col_iters": col_iters,
    }


# ----------------------------------------------------------------------
# shards
# ----------------------------------------------------------------------
class WorkerShard:
    """One serving shard: a factor cache plus a virtual busy clock."""

    def __init__(
        self,
        shard_id,
        *,
        cache_entries=8,
        cost: CostModel | None = None,
        options: JavelinOptions | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        staleness: StalenessPolicy | None = None,
    ):
        self.shard_id = int(shard_id)
        self.cache = FactorCache(cache_entries, name=f"shard{self.shard_id}")
        self.cost = cost or CostModel()
        self.options = options or JavelinOptions()
        self.retry_policy = retry_policy or RetryPolicy()
        self.fault_plan = fault_plan
        self.staleness = staleness or StalenessPolicy()
        self.free_at = 0.0
        self.busy = False
        self.n_batches = 0
        self.n_cold = 0
        self.n_demotions = 0
        self.n_refactors = 0
        self.n_stale_steps = 0
        # matrix_key -> fingerprint the live cache entry is stored under.
        # Value-only updates move the *service's* fingerprint while the
        # entry stays put (stale policy) — pattern fingerprints cannot
        # index this lineage because distinct matrices legitimately
        # share a pattern.
        self._lineage: dict = {}

    # ------------------------------------------------------------------
    def _build_entry(self, A, fingerprint, budget):
        """Cold-miss factorization under a deadline budget.

        Picks the factorization tier the budget affords: the full
        requested options when there is headroom, a shift-limited run
        when tight, and a demoted ILU(0) with a single shift attempt
        when the budget cannot even cover the requested tier — a late
        preconditioner serves nobody, a cruder one might.
        """
        full = self.cost.factor_cost(A.nnz, self.options.fill_level)
        opts, pol, demoted, charge = self.options, self.retry_policy, False, full
        if budget < full:
            opts = self.options.with_(fill_level=0, tau=0.0, modified=False)
            pol = self.retry_policy.with_(max_shift_attempts=1)
            demoted = True
            charge = self.cost.factor_cost(A.nnz, 0)
        elif budget < 2.0 * full:
            pol = self.retry_policy.with_(
                max_shift_attempts=min(2, self.retry_policy.max_shift_attempts)
            )
        rf = ResilientFactor(opts, pol).setup(A)
        if rf.ilu is not None:
            n_levels = int(rf.ilu.analysis.plan("lower").n_levels)
            nnz = int(rf.ilu.F.nnz)
        else:
            n_levels, nnz = 1, int(A.nnz)
        entry = FactorEntry(
            fingerprint=fingerprint,
            factor=rf,
            apply_multi=rf.build_multi_solver(),
            variant=rf.report.final_variant,
            n_levels=n_levels,
            nnz=nnz,
            build_cost=charge,
            demoted=demoted,
        )
        self.cache.put(entry)
        self.n_cold += 1
        if demoted:
            self.n_demotions += 1
        _spans.instant(
            "serve.factor",
            cat="serve",
            shard=self.shard_id,
            key=fingerprint[:12],
            variant=entry.variant,
            demoted=demoted,
        )
        return entry, charge

    # ------------------------------------------------------------------
    def invalidate(self, matrix_key):
        """Forget the live entry for ``matrix_key`` (pattern changed).

        The next batch cold-builds; the orphaned cache entry ages out
        of the LRU on its own.
        """
        self._lineage.pop(matrix_key, None)

    def _revalue_entry(self, entry, A, fingerprint, matrix_key):
        """Value-only refresh of a cached entry, in place.

        Runs the numeric phase on the cached symbolic products
        (:meth:`FactorEntry.revalue`), re-keys the cache slot to the new
        matrix fingerprint, and re-baselines the staleness iteration
        counter.  Charged at the refactor rate — the measurable win the
        apps bench gates on.
        """
        old_fp = entry.fingerprint
        entry.revalue(A, fingerprint)
        self.cache.rekey(old_fp, fingerprint)
        self._lineage[matrix_key] = fingerprint
        entry.base_iters = 0.0
        self.n_refactors += 1
        charge = self.cost.refactor_cost(entry.nnz)
        _spans.instant(
            "serve.refactor",
            cat="serve",
            shard=self.shard_id,
            key=fingerprint[:12],
            variant=entry.variant,
            refactors=entry.refactors,
        )
        return entry, charge

    # ------------------------------------------------------------------
    def _scheduler_sync_points(self, entry, scheduler):
        """Sync-point count of the batch's trisolve scheduler (cached).

        ``None``/``p2p``/``barrier`` keep the historical pricing
        (``2 × n_levels``, returned as ``None`` so ``solve_cost``'s
        default applies — the no-knob behavior is bit-identical).  The
        numeric applies are unchanged either way: every scheduler the
        service exposes runs in its exact mode, so only the charge
        moves.
        """
        if scheduler in (None, "p2p", "barrier"):
            return None
        sp = entry.sync_points.get(scheduler)
        if sp is None:
            rf = entry.factor
            if rf.ilu is None:
                sp = 2 * entry.n_levels
            else:
                from ..sched import effective_sync_passes

                sp = effective_sync_passes(rf.ilu.F, scheduler)
            entry.sync_points[scheduler] = sp
        return sp

    # ------------------------------------------------------------------
    def execute(self, batch, A, fingerprint, now, *, scheduler_override=None):
        """Run one batch starting at virtual time ``now``.

        Returns ``(results, finish_time)``; the shard is busy until
        ``finish_time``.  Faults scale or delay the virtual charges but
        never change the computed numbers.  ``scheduler_override``
        substitutes for an *unpinned* batch scheduler (the tune
        controller's per-pattern pick); a request that named its own
        scheduler keeps it.
        """
        reqs = batch.requests
        matrix_key, solver, tol, maxiter, scheduler = batch.key
        if scheduler is None:
            scheduler = scheduler_override
        budget = min(r.deadline for r in reqs) - now
        entry = self.cache.get(self._lineage.get(matrix_key, fingerprint))
        factor_charge = 0.0
        stale_this_batch = False
        if entry is None:
            entry, factor_charge = self._build_entry(A, fingerprint, budget)
            self._lineage[matrix_key] = fingerprint
        elif entry.fingerprint != fingerprint:
            # values drifted under a fixed pattern since this factor was
            # built — the staleness policy picks the response
            mode = self.staleness.mode
            if mode == "refactor" or (
                mode == "stale" and self.staleness.should_refactor(entry)
            ):
                entry, factor_charge = self._revalue_entry(entry, A, fingerprint, matrix_key)
            elif mode == "cold":
                entry, factor_charge = self._build_entry(A, fingerprint, budget)
                self._lineage[matrix_key] = fingerprint
            else:
                stale_this_batch = True
        sync_points = self._scheduler_sync_points(entry, scheduler)
        if solver == "richardson":
            out = blocked_richardson(
                A, entry, np.stack([r.b for r in reqs], axis=1), tol, maxiter
            )
            solve_charge = self.cost.solve_cost(
                entry.n_levels, entry.nnz, out["passes"], out["col_iters"],
                sync_points=sync_points,
            )
        else:
            out = self._krylov(A, entry, reqs, solver, tol, maxiter)
            solve_charge = self.cost.solve_cost(
                entry.n_levels, entry.nnz, int(out["iterations"].sum()),
                int(out["iterations"].sum()),
                sync_points=sync_points,
            )
        service = factor_charge + solve_charge
        plan = self.fault_plan
        if plan is not None:
            service *= plan.rate(self.shard_id)
            service += sum(
                plan.spin_fault_penalty for r in reqs if r.request_id in plan.spin_faults
            )
        finish = now + service
        if plan is not None:
            # a lost completion publish is healed by the watchdog, one
            # timeout per dropped event — late, never lost
            n_dropped = sum(1 for r in reqs if plan.is_dropped(self.shard_id, r.request_id))
            finish += plan.watchdog_timeout * n_dropped
        # staleness bookkeeping: record this solve's quality on the
        # entry (the policy's degradation signal), and baseline a
        # freshly (re)built factor on its first solve
        mean_iters = float(np.mean(out["iterations"])) if len(reqs) else 0.0
        entry.last_iters = mean_iters
        entry.last_converged = bool(np.all(out["converged"]))
        if stale_this_batch:
            entry.stale_steps += 1
            self.n_stale_steps += 1
            _spans.instant(
                "serve.stale",
                cat="serve",
                shard=self.shard_id,
                key=fingerprint[:12],
                stale_steps=entry.stale_steps,
                mean_iters=mean_iters,
            )
        elif entry.base_iters == 0.0:
            entry.base_iters = mean_iters
        self.n_batches += 1
        _spans.instant(
            "serve.batch",
            cat="serve",
            shard=self.shard_id,
            size=len(reqs),
            solver=solver,
            cold=factor_charge > 0.0,
        )
        results = []
        for j, r in enumerate(reqs):
            if out["broken"][j]:
                outcome, detail = "breakdown", "non-finite solve even after demotion"
            elif finish > r.deadline:
                outcome, detail = "deadline_miss", ""
            else:
                outcome, detail = "served", ""
            results.append(
                RequestResult(
                    request_id=r.request_id,
                    outcome=outcome,
                    x=out["X"][:, j].copy(),
                    iterations=int(out["iterations"][j]),
                    residual=float(out["residual"][j]),
                    converged=bool(out["converged"][j]),
                    arrival_time=r.arrival_time,
                    start_time=now,
                    finish_time=finish,
                    shard=self.shard_id,
                    batch_size=len(reqs),
                    variant=entry.variant,
                    detail=detail,
                )
            )
        return results, finish

    def _krylov(self, A, entry, reqs, solver, tol, maxiter):
        """Per-request Krylov solves (non-batchable path)."""
        from ..solvers import bicgstab, cg, gmres

        run = {"gmres": gmres, "cg": cg, "bicgstab": bicgstab}[solver]
        k = len(reqs)
        n = A.n_rows
        X = np.zeros((n, k))
        iters = np.zeros(k, dtype=np.int64)
        resid = np.full(k, math.nan)
        converged = np.zeros(k, dtype=bool)
        broken = np.zeros(k, dtype=bool)
        for j, r in enumerate(reqs):
            res = run(A, r.b, M=entry.factor, tol=tol, maxiter=maxiter)
            X[:, j] = res.x
            iters[j] = res.iterations
            resid[j] = res.residual
            converged[j] = res.converged
            if not np.all(np.isfinite(res.x)) or (
                res.reason is not None and "breakdown" in res.reason.lower()
            ):
                broken[j] = True
        entry.refresh_applies()  # a guarded resetup may have advanced the chain
        return {
            "X": X,
            "iterations": iters,
            "residual": resid,
            "converged": converged,
            "broken": broken,
            "restarts": 0,
            "passes": int(iters.sum()),
            "col_iters": int(iters.sum()),
        }


# ----------------------------------------------------------------------
# the service
# ----------------------------------------------------------------------
class SolveService:
    """Deterministic batched solve service over registered matrices."""

    #: namespace of this service's metrics and trace instants
    metric_prefix = "serve"
    #: detail of requests no worker can ever serve
    stranded_detail = "no worker can serve the request"

    def __init__(
        self,
        matrices,
        *,
        n_shards=2,
        capacity=64,
        admission="reject",
        batch_policy: BatchPolicy | None = None,
        cost: CostModel | None = None,
        options: JavelinOptions | None = None,
        retry_policy: RetryPolicy | None = None,
        fault_plan=None,
        factor_cache_entries=8,
        registry=None,
        staleness: StalenessPolicy | None = None,
        fairness="round_robin",
        controller=None,
    ):
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1, got {n_shards}")
        self.matrices = dict(matrices)
        # value-aware digests: factors depend on the values, so two
        # matrices sharing a stencil must not share a cache slot
        self.fingerprints = {k: matrix_fingerprint(A) for k, A in self.matrices.items()}
        # structure-only digests decide whether an update_matrix() is a
        # value-only drift (revalue-eligible) or a new pattern
        self.pattern_digests = {k: pattern_fingerprint(A) for k, A in self.matrices.items()}
        # routing fingerprints are pinned at registration so value-only
        # updates keep a matrix on the shard that holds its factor
        self._route_fps = dict(self.fingerprints)
        self.capacity = int(capacity)
        self.admission = admission
        self.fairness = fairness
        self.staleness = staleness or StalenessPolicy()
        self.batch_policy = batch_policy or BatchPolicy()
        self.cost = cost or CostModel()
        self.registry = registry
        # duck-typed repro.tune controller (scheduler_override / observe
        # / batch_policy / staleness); None = untuned, the default —
        # serve never imports repro.tune
        self.controller = controller
        self.shards = [
            self._make_shard(
                i,
                cache_entries=factor_cache_entries,
                options=options,
                retry_policy=retry_policy,
                fault_plan=fault_plan,
            )
            for i in range(int(n_shards))
        ]
        self._inbox: list = []
        self._lock = threading.Lock()  # thread-safe submit(); run() is single-threaded

    def _make_shard(self, shard_id, **kw):
        return WorkerShard(shard_id, cost=self.cost, staleness=self.staleness, **kw)

    # ------------------------------------------------------------------
    def submit(self, req: SolveRequest):
        """Enqueue a request for the next :meth:`run` (thread-safe)."""
        with self._lock:
            self._inbox.append(req)

    def drain_inbox(self):
        with self._lock:
            out, self._inbox = self._inbox, []
        return out

    def shard_of(self, matrix_key) -> int:
        """Shard affinity: a matrix key always lands on one shard.

        Routes on the fingerprint pinned at registration (or at the
        last pattern change), NOT the live value fingerprint — a
        value-only :meth:`update_matrix` must keep routing to the shard
        whose cache holds the factor being revalued.
        """
        return int(self._route_fps[matrix_key], 16) % len(self.shards)

    # ------------------------------------------------------------------
    def update_matrix(self, key, A_new):
        """Swap the values (or whole matrix) behind a registered key.

        Returns what downstream should expect:

        * ``"unchanged"`` — identical value fingerprint, no-op;
        * ``"values_changed"`` — same pattern, new values: the owning
          shard revalues / serves stale per its
          :class:`~repro.serve.staleness.StalenessPolicy`;
        * ``"pattern_changed"`` — structure moved: the old factor is
          invalidated and the next batch cold-builds (routing may move
          to a different shard).
        """
        if key not in self.matrices:
            raise KeyError(f"unknown matrix_key {key!r}")
        new_fp = matrix_fingerprint(A_new)
        if new_fp == self.fingerprints[key]:
            return "unchanged"
        self.matrices[key] = A_new
        self.fingerprints[key] = new_fp
        new_pat = pattern_fingerprint(A_new)
        if new_pat != self.pattern_digests[key]:
            self.pattern_digests[key] = new_pat
            self._route_fps[key] = new_fp
            for s in self.shards:
                s.invalidate(key)
            kind = "pattern_changed"
        else:
            kind = "values_changed"
        _spans.instant("serve.matrix_update", cat="serve", key=key, kind=kind)
        return kind

    def _est_cost(self, key, size):
        """Deadline-pressure estimate before anything has been factored."""
        A = self.matrices[key[0]]
        est_levels = max(1, int(A.n_rows**0.5))
        return self.cost.estimate_solve(est_levels, A.nnz, size)

    # ------------------------------------------------------------------
    # the event loop
    # ------------------------------------------------------------------
    def run(self, requests=None):
        """Serve a workload to completion; returns results by request id.

        ``requests`` defaults to the submitted inbox.  Every request
        terminates with a structured outcome; the run is a pure
        function of the inputs (virtual clock, seeded numerics), so the
        same workload replays identically.
        """
        reqs = list(requests) if requests is not None else self.drain_inbox()
        for r in reqs:
            if r.matrix_key not in self.matrices:
                raise KeyError(f"unknown matrix_key {r.matrix_key!r}")
            if r.solver not in SOLVERS:
                raise ValueError(f"unknown solver {r.solver!r}; supported: {SOLVERS}")
        reqs.sort(key=lambda r: (r.arrival_time, r.request_id))
        queue = AdmissionQueue(self.capacity, self.admission, self.fairness)
        ctl = self.controller
        batcher = MicroBatcher(ctl.batch_policy if ctl is not None else self.batch_policy)
        results: dict[int, RequestResult] = {}
        self._begin_run()
        prefix = self.metric_prefix
        i = 0
        now = 0.0
        while i < len(reqs) or queue or self._pending():
            # -- 0. choose the next instant anything can happen -------------
            cands = self._event_times(now)
            if i < len(reqs):
                cands.append(reqs[i].arrival_time)
            idle_keys = {
                key
                for key in queue.group_sizes()
                if self._is_idle(self._owner(key[0], now), now)
            }
            if idle_keys:
                cands.append(batcher.next_close_time(queue, self._est_cost, keys=idle_keys))
            if not cands:
                # nothing can ever happen again: stranded work is
                # rejected, never silently dropped
                self._reject_stranded(queue, results, now)
                break
            now = max(now, min(cands))
            # -- 1. workers advance to ``now`` ------------------------------
            self._advance(now, results)
            # -- 2. arrivals: admission --------------------------------------
            while i < len(reqs) and reqs[i].arrival_time <= now:
                req = reqs[i]
                i += 1
                for victim in queue.push(req):
                    results[victim.request_id] = RequestResult.unrun(
                        victim,
                        "rejected",
                        now,
                        f"queue full (capacity {self.capacity}, policy {self.admission})",
                    )
                    _spans.instant(
                        f"{prefix}.reject", cat=prefix, request_id=victim.request_id
                    )
                self._admitted(req, now)
            # -- 3. close and start ready batches per idle worker -----------
            self._dispatch_backlog(now, results)
            for s in self.shards:
                if not self._is_idle(s, now):
                    continue
                keys_for_s = {
                    key for key in queue.group_sizes() if self._owner(key[0], now) is s
                }
                if not keys_for_s:
                    continue
                batches = batcher.pop_ready(queue, now, self._est_cost, keys=keys_for_s)
                if batches:
                    self._start(s, batches, now, queue, results)
            if ctl is not None:
                # re-read the knobs the controller may have moved; all
                # of them select among bit-identical paths only
                batcher.policy = ctl.batch_policy
                for sh in self.shards:
                    sh.staleness = ctl.staleness
        ordered = [
            results[r.request_id]
            for r in sorted(reqs, key=lambda r: r.request_id)
            if r.request_id in results
        ]
        self._record_metrics(ordered, queue, batcher)
        return ordered

    # ------------------------------------------------------------------
    # what a fleet decides: the single-machine answers
    # ------------------------------------------------------------------
    def _begin_run(self):
        """Reset per-run worker state."""
        for s in self.shards:
            s.busy = False
            s.free_at = 0.0

    def _pending(self) -> bool:
        """Work the loop must still wait out, beyond arrivals and queue."""
        return any(s.busy for s in self.shards)

    def _event_times(self, now):
        """Future instants at which a worker changes state."""
        return [s.free_at for s in self.shards if s.busy]

    def _owner(self, matrix_key, now):
        """The worker that serves ``matrix_key`` at ``now``."""
        return self.shards[self.shard_of(matrix_key)]

    def _is_idle(self, shard, now) -> bool:
        return not shard.busy

    def _advance(self, now, results):
        """Free every shard whose back-to-back batches have finished."""
        for s in self.shards:
            if s.busy and s.free_at <= now:
                s.busy = False

    def _admitted(self, req, now):
        """Hook after a request enters the queue (no-op on one machine)."""

    def _dispatch_backlog(self, now, results):
        """Hook before fresh batches start (one machine has no backlog)."""

    def _start(self, shard, batches, now, queue, results):
        """Run ``batches`` back to back on ``shard`` starting at ``now``."""
        ctl = self.controller
        start = now
        for batch in batches:
            A = self.matrices[batch.matrix_key]
            override = ctl.scheduler_override(A) if ctl is not None else None
            batch_results, finish = shard.execute(
                batch,
                A,
                self.fingerprints[batch.matrix_key],
                start,
                scheduler_override=override,
            )
            for res in batch_results:
                results[res.request_id] = res
            start = finish
            if ctl is not None:
                ctl.observe(batch_results, queue_depth=len(queue), now=finish)
        shard.busy = True
        shard.free_at = start

    def _reject_stranded(self, queue, results, now):
        while queue:
            sizes = queue.group_sizes()
            key = next(iter(sizes))
            for r in queue.take(key, sizes[key]):
                results[r.request_id] = RequestResult.unrun(
                    r, "rejected", now, self.stranded_detail
                )

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _record_metrics(self, results, queue, batcher):
        reg = self.registry
        if reg is None:
            return
        from ..obs.metrics import record_factor_cache_metrics
        from .request import OUTCOMES

        p = self.metric_prefix
        reg.counter(f"{p}.requests").inc(len(results))
        for outcome in OUTCOMES:
            n = sum(1 for r in results if r.outcome == outcome)
            if n:
                reg.counter(f"{p}.{outcome}").inc(n)
        reg.counter(f"{p}.batches").inc(batcher.n_batches)
        reg.gauge(f"{p}.queue_depth_peak").set(queue.peak_depth)
        finished = [r for r in results if r.outcome != "rejected"]
        if finished:
            reg.histogram(f"{p}.latency").observe_many(r.latency for r in finished)
            reg.histogram(f"{p}.batch_size").observe_many(
                r.batch_size for r in finished if r.batch_size
            )
        record_factor_cache_metrics(
            reg, [s.cache for s in self.shards], prefix=f"{p}.factor_cache"
        )
        self._record_fleet_metrics(reg, finished)

    def _record_fleet_metrics(self, reg, finished):
        """Metrics only this kind of fleet has."""
        p = self.metric_prefix
        for name in ("demotions", "refactors", "stale_steps"):
            reg.counter(f"{p}.{name}").inc(sum(getattr(s, f"n_{name}") for s in self.shards))
        if finished:
            reg.histogram(f"{p}.wait_time").observe_many(r.wait_time for r in finished)
        if self.controller is not None:
            for name, value in self.controller.metrics().items():
                reg.counter(name).inc(int(value))

