"""Value-only revalue through SolveService + factor-staleness policies."""

import math

import numpy as np
import pytest

from repro.matrices import grid2d
from repro.obs.metrics import MetricsRegistry
from repro.serve import (
    BatchPolicy,
    RequestResult,
    SolveRequest,
    SolveService,
    StalenessPolicy,
)
from repro.serve.factor_cache import FactorEntry
from repro.serve.workload import summarize


def _drifted(step):
    # same 8x8 grid stencil every step, values drift with the step
    return grid2d(8, convection=0.1 * (step + 1))


def _service(policy=None, **kw):
    kw.setdefault("batch_policy", BatchPolicy(max_batch=4, max_wait=0.01))
    return SolveService(
        {"g": _drifted(0)}, n_shards=1, staleness=policy, **kw
    )


def _step(svc, i, n=64):
    rng = np.random.default_rng(7)  # same rhs every step: isolate the factor
    req = SolveRequest(
        request_id=i,
        tenant="t0",
        matrix_key="g",
        b=rng.standard_normal(n),
        arrival_time=float(i),
    )
    (res,) = svc.run([req])
    return res


class TestStalenessPolicy:
    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="mode"):
            StalenessPolicy(mode="lazy")

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError, match="degrade_factor"):
            StalenessPolicy(degrade_factor=0.9)
        with pytest.raises(ValueError, match="degrade_margin"):
            StalenessPolicy(degrade_margin=-1)

    def _entry(self, **kw):
        kw.setdefault("fingerprint", "fp")
        kw.setdefault("factor", None)
        kw.setdefault("apply_multi", None)
        kw.setdefault("variant", "primary")
        kw.setdefault("n_levels", 1)
        kw.setdefault("nnz", 1)
        return FactorEntry(**kw)

    def test_nonconvergence_forces_refactor(self):
        pol = StalenessPolicy(mode="stale")
        entry = self._entry(base_iters=4.0, last_iters=4.0, last_converged=False)
        assert pol.should_refactor(entry)

    def test_no_baseline_means_no_signal(self):
        pol = StalenessPolicy(mode="stale")
        entry = self._entry(base_iters=0.0, last_iters=50.0)
        assert not pol.should_refactor(entry)

    def test_degradation_threshold_is_max_of_factor_and_margin(self):
        pol = StalenessPolicy(mode="stale", degrade_factor=1.5, degrade_margin=4)
        # base 4: threshold max(6, 8) = 8
        entry = self._entry(base_iters=4.0, last_iters=8.0)
        assert not pol.should_refactor(entry)
        entry.last_iters = 8.5
        assert pol.should_refactor(entry)


class TestUpdateMatrix:
    def test_unchanged_is_a_noop(self):
        svc = _service()
        assert svc.update_matrix("g", _drifted(0)) == "unchanged"

    def test_value_drift_detected(self):
        svc = _service()
        assert svc.update_matrix("g", _drifted(1)) == "values_changed"

    def test_pattern_change_detected_and_invalidates(self):
        svc = _service()
        _step(svc, 0)
        assert svc.shards[0].n_cold == 1
        assert svc.update_matrix("g", grid2d(9)) == "pattern_changed"
        _step(svc, 1, n=81)
        assert svc.shards[0].n_cold == 2  # old factor unusable

    def test_unknown_key_raises(self):
        svc = _service()
        with pytest.raises(KeyError, match="nope"):
            svc.update_matrix("nope", _drifted(1))

    def test_value_only_update_keeps_routing_stable(self):
        svc = SolveService(
            {"g": _drifted(0)},
            n_shards=4,
            batch_policy=BatchPolicy(max_batch=4, max_wait=0.01),
        )
        home = svc.shard_of("g")
        svc.update_matrix("g", _drifted(1))
        assert svc.shard_of("g") == home


class TestPolicies:
    def test_cold_policy_rebuilds_each_change(self):
        svc = _service(StalenessPolicy(mode="cold"))
        _step(svc, 0)
        svc.update_matrix("g", _drifted(1))
        _step(svc, 1)
        shard = svc.shards[0]
        assert shard.n_cold == 2
        assert shard.n_refactors == 0

    def test_refactor_policy_revalues_in_place(self):
        svc = _service(StalenessPolicy(mode="refactor"))
        _step(svc, 0)
        svc.update_matrix("g", _drifted(1))
        _step(svc, 1)
        shard = svc.shards[0]
        assert shard.n_cold == 1
        assert shard.n_refactors == 1
        assert shard.n_stale_steps == 0

    def test_refactor_solution_bitwise_equals_cold(self):
        # the revalued factor must be indistinguishable from a cold
        # build of the new values — compare full served solutions
        a = _service(StalenessPolicy(mode="refactor"))
        b = _service(StalenessPolicy(mode="cold"))
        for svc in (a, b):
            _step(svc, 0)
            svc.update_matrix("g", _drifted(1))
        ra, rb = _step(a, 1), _step(b, 1)
        assert ra.outcome == rb.outcome == "served"
        assert np.array_equal(ra.x, rb.x)
        assert ra.iterations == rb.iterations

    def test_stale_policy_serves_old_factor_below_threshold(self):
        # mild drift: iteration counts stay under the degrade threshold,
        # so the stale policy keeps the old factor and skips the refactor
        svc = _service(StalenessPolicy(mode="stale"))
        _step(svc, 0)
        svc.update_matrix("g", _drifted(1))
        res = _step(svc, 1)
        shard = svc.shards[0]
        assert res.outcome == "served"
        assert shard.n_refactors == 0
        assert shard.n_stale_steps == 1

    def test_stale_policy_refactors_once_degraded(self):
        # zero tolerance for drift: any extra iteration trips the
        # threshold, so the first degraded solve triggers a refactor
        pol = StalenessPolicy(mode="stale", degrade_factor=1.0, degrade_margin=0)
        svc = _service(pol)
        _step(svc, 0)
        n_refactors = 0
        for i in range(1, 8):
            # strong drift: convection grows 0.25 per step, so the old
            # factor's iteration count climbs past the fresh baseline
            svc.update_matrix("g", grid2d(8, convection=0.25 * (i + 1)))
            _step(svc, i)
            n_refactors = svc.shards[0].n_refactors
            if n_refactors:
                break
        assert n_refactors >= 1
        assert svc.shards[0].n_stale_steps >= 1  # it did serve stale first

    def test_metrics_counters_wired(self):
        reg = MetricsRegistry()
        svc = _service(StalenessPolicy(mode="refactor"), registry=reg)
        _step(svc, 0)
        svc.update_matrix("g", _drifted(1))
        _step(svc, 1)
        counters = reg.snapshot()["counters"]
        assert counters.get("serve.refactors", 0) == 1
        assert counters.get("serve.stale_steps", 0) == 0

    def test_edf_fairness_plumbs_through_service(self):
        svc = _service(fairness="edf")
        assert _step(svc, 0).outcome == "served"


class TestGoodput:
    def _result(self, rid, outcome, finish=1.0):
        return RequestResult(
            request_id=rid,
            outcome=outcome,
            x=None if outcome == "rejected" else np.zeros(1),
            arrival_time=0.0,
            start_time=0.1,
            finish_time=math.nan if outcome == "rejected" else finish,
            batch_size=1,
        )

    def test_goodput_counts_only_served(self):
        # regression: "throughput" includes deadline misses (work done,
        # but useless to the client) — gates that mean useful work must
        # read the served-only goodput
        results = [
            self._result(0, "served"),
            self._result(1, "served"),
            self._result(2, "deadline_miss"),
            self._result(3, "rejected"),
        ]
        s = summarize(results)
        assert s["makespan"] == 1.0
        assert s["throughput"] == 3.0  # served + deadline_miss
        assert s["goodput"] == 2.0  # served only
        assert s["goodput"] < s["throughput"]

    def test_goodput_equals_throughput_when_all_served(self):
        results = [self._result(i, "served") for i in range(3)]
        s = summarize(results)
        assert s["goodput"] == s["throughput"]

    def test_goodput_nan_without_makespan(self):
        s = summarize([self._result(0, "rejected")])
        assert math.isnan(s["goodput"])
