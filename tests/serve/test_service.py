"""SolveService end-to-end: outcomes, determinism, faults, caching."""

import math
import threading

import numpy as np
import pytest

from repro.matrices import grid2d
from repro.obs.metrics import MetricsRegistry, validate_metrics
from repro.resilience import FaultPlan
from repro.serve import (
    OUTCOMES,
    BatchPolicy,
    CostModel,
    SolveRequest,
    SolveService,
)
from repro.sparse import spmv_csr


def _matrices():
    return {"g12": grid2d(12), "g16": grid2d(16)}


def _requests(n=24, *, seed=0, deadline=math.inf, keys=("g12", "g16"), ns=(144, 256)):
    rng = np.random.default_rng(seed)
    reqs = []
    t = 0.0
    for i in range(n):
        t += float(rng.exponential(1 / 800.0))
        which = int(rng.integers(len(keys)))
        reqs.append(
            SolveRequest(
                request_id=i,
                tenant=f"t{int(rng.integers(3))}",
                matrix_key=keys[which],
                b=rng.standard_normal(ns[which]),
                arrival_time=t,
                deadline=t + deadline if math.isfinite(deadline) else math.inf,
                maxiter=80,
            )
        )
    return reqs


def _service(ms=None, **kw):
    kw.setdefault("batch_policy", BatchPolicy(max_batch=8, max_wait=0.01))
    return SolveService(ms or _matrices(), n_shards=2, **kw)


class TestHappyPath:
    def test_every_request_terminates_served_and_accurate(self):
        ms = _matrices()
        svc = _service(ms)
        reqs = _requests()
        results = svc.run(reqs)
        assert len(results) == len(reqs)
        assert all(r.outcome == "served" for r in results)
        # solutions actually solve the systems to the requested tolerance
        by_id = {r.request_id: r for r in reqs}
        for res in results:
            req = by_id[res.request_id]
            A = ms[req.matrix_key]
            rel = np.linalg.norm(req.b - spmv_csr(A, res.x)) / np.linalg.norm(req.b)
            assert rel <= req.tol * 10

    def test_results_sorted_by_request_id(self):
        results = _service().run(_requests())
        assert [r.request_id for r in results] == sorted(r.request_id for r in results)

    def test_batching_coalesces(self):
        results = _service().run(_requests(32))
        assert max(r.batch_size for r in results) > 1

    def test_shard_affinity_is_per_matrix(self):
        results = _service().run(_requests(32))
        svc = _service()
        for res in results:
            assert res.shard in (0, 1)
        # all requests of one matrix land on its affinity shard
        by_key = {}
        reqs = {r.request_id: r for r in _requests(32)}
        for res in results:
            by_key.setdefault(reqs[res.request_id].matrix_key, set()).add(res.shard)
        for key, shards in by_key.items():
            assert shards == {svc.shard_of(key)}

    def test_warm_cache_after_first_batch(self):
        svc = _service()
        svc.run(_requests(24))
        stats = [s.cache.stats() for s in svc.shards]
        assert sum(st["misses"] for st in stats) == 2  # one cold miss per matrix
        assert sum(st["hits"] for st in stats) > 0

    def test_krylov_path_serves_singletons(self):
        ms = _matrices()
        reqs = [
            SolveRequest(
                request_id=i,
                tenant="t0",
                matrix_key="g12",
                b=np.random.default_rng(i).standard_normal(144),
                solver="gmres",
                tol=1e-8,
                arrival_time=0.001 * i,
            )
            for i in range(3)
        ]
        results = _service(ms).run(reqs)
        assert all(r.outcome == "served" for r in results)
        assert all(r.batch_size == 1 for r in results)  # non-batchable
        assert all(r.converged for r in results)


class TestDeterminism:
    def test_replay_is_bit_identical(self):
        r1 = _service().run(_requests(32, seed=5))
        r2 = _service().run(_requests(32, seed=5))
        assert [(a.outcome, a.shard, a.batch_size, a.finish_time) for a in r1] == [
            (b.outcome, b.shard, b.batch_size, b.finish_time) for b in r2
        ]
        for a, b in zip(r1, r2):
            assert np.array_equal(a.x, b.x)

    def test_batched_equals_sequential_numerics(self):
        reqs = _requests(24, seed=3)
        batched = _service(batch_policy=BatchPolicy(max_batch=8, max_wait=0.01)).run(reqs)
        seq = _service(batch_policy=BatchPolicy(max_batch=1)).run(_requests(24, seed=3))
        for a, b in zip(batched, seq):
            assert np.array_equal(a.x, b.x)
            assert a.iterations == b.iterations
            assert a.residual == b.residual


class TestOutcomes:
    def test_rejected_under_tiny_capacity(self):
        svc = _service(capacity=2, batch_policy=BatchPolicy(max_batch=2, max_wait=0.5))
        results = svc.run(_requests(24, seed=1))
        outcomes = {r.outcome for r in results}
        assert "rejected" in outcomes
        rejected = [r for r in results if r.outcome == "rejected"]
        assert all(r.x is None for r in rejected)
        assert all(r.detail == "queue full (capacity 2)" for r in rejected)
        # a full queue bounces the newcomer as it arrives
        assert all(r.latency == 0.0 for r in rejected)

    def test_deadline_miss_still_carries_solution(self):
        results = _service().run(_requests(12, deadline=1e-6))
        misses = [r for r in results if r.outcome == "deadline_miss"]
        assert misses
        assert all(r.x is not None for r in misses)
        assert all(r.finish_time > r.arrival_time + 1e-6 for r in misses)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_breakdown_on_overflowing_rhs(self):
        ms = _matrices()
        bad = SolveRequest(
            request_id=0,
            tenant="t0",
            matrix_key="g12",
            b=np.full(144, 1e308),  # norm overflows -> non-finite
            arrival_time=0.0,
        )
        (res,) = _service(ms).run([bad])
        assert res.outcome == "breakdown"

    def test_unknown_matrix_and_solver_raise(self):
        svc = _service()
        with pytest.raises(KeyError, match="unknown matrix_key"):
            svc.run(
                [SolveRequest(request_id=0, tenant="t", matrix_key="nope", b=np.ones(4))]
            )
        with pytest.raises(ValueError, match="unknown solver"):
            svc.run(
                [
                    SolveRequest(
                        request_id=0,
                        tenant="t",
                        matrix_key="g12",
                        b=np.ones(144),
                        solver="magic",
                    )
                ]
            )

    @pytest.mark.parametrize("field", ["arrival_time", "deadline", "tol"])
    def test_nan_time_or_tolerance_rejected_at_construction(self, field):
        """A NaN arrival was never admitted, so ``run`` looped forever."""
        with pytest.raises(ValueError, match=field):
            SolveRequest(
                request_id=0,
                tenant="t",
                matrix_key="g12",
                b=np.ones(144),
                **{field: math.nan},
            )


class TestDeadlineDemotion:
    def test_cold_miss_under_tight_budget_demotes(self):
        cost = CostModel(factor_per_nnz=1e-3)  # make factoring expensive
        svc = _service(cost=cost)
        results = svc.run(_requests(8, deadline=1e-4))
        assert len(results) == 8
        assert sum(s.n_demotions for s in svc.shards) >= 1
        assert all(r.outcome in OUTCOMES for r in results)

    def test_relaxed_budget_does_not_demote(self):
        svc = _service()
        svc.run(_requests(8))
        assert sum(s.n_demotions for s in svc.shards) == 0


class TestFaults:
    def _plan(self):
        return FaultPlan.seeded(
            2,
            n_rows=32,
            seed=9,
            n_stragglers=1,
            slowdown=8.0,
            spin_fault_frac=0.2,
            dropped=((0, 1), (1, 2)),
            watchdog_timeout=0.05,
        )

    def test_faulted_run_terminates_with_structured_outcomes(self):
        results = _service(fault_plan=self._plan()).run(_requests(32, deadline=0.05))
        assert len(results) == 32
        assert all(r.outcome in OUTCOMES for r in results)

    def test_faulted_run_is_deterministic(self):
        r1 = _service(fault_plan=self._plan()).run(_requests(32, deadline=0.05))
        r2 = _service(fault_plan=self._plan()).run(_requests(32, deadline=0.05))
        assert [(a.outcome, a.finish_time) for a in r1] == [
            (b.outcome, b.finish_time) for b in r2
        ]

    def test_faults_delay_but_never_change_numerics(self):
        clean = _service().run(_requests(32, seed=2))
        faulted = _service(fault_plan=self._plan()).run(_requests(32, seed=2))
        for a, b in zip(clean, faulted):
            assert np.array_equal(a.x, b.x)  # time shifts, bits don't
        assert max(r.finish_time for r in faulted) > max(r.finish_time for r in clean)


class TestServiceMechanics:
    def test_submit_is_thread_safe_and_run_drains(self):
        svc = _service()
        reqs = _requests(24, seed=4)

        def feed(chunk):
            for r in chunk:
                svc.submit(r)

        threads = [
            threading.Thread(target=feed, args=(reqs[i::4],)) for i in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        results = svc.run()
        assert len(results) == 24
        assert svc.drain_inbox() == []

    def test_metrics_snapshot_validates(self):
        reg = MetricsRegistry()
        svc = _service(registry=reg)
        svc.run(_requests(24))
        snap = reg.snapshot()
        assert validate_metrics(snap) == []
        assert snap["counters"]["serve.requests"] == 24
        assert snap["counters"]["serve.served"] == 24
        assert "serve.factor_cache.shard0.hits" in snap["gauges"]
        assert snap["histograms"]["serve.latency"]["count"] == 24
