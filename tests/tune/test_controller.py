"""Controller: windowed adaptation, decision audit log, obs counters."""

from dataclasses import dataclass

import pytest

from repro.kernels import cached_analysis
from repro.serve.batcher import BatchPolicy
from repro.serve.staleness import StalenessPolicy
from repro.tune import TuneController, TunePolicy, count_supersteps, serve_scheduler
from shapes import chain_matrix, wide_matrix


@dataclass
class _R:
    """The two result fields the controller reads."""

    outcome: str = "served"
    iterations: int = 10


def _controller(**policy_kw):
    return TuneController(
        policy=TunePolicy(window=2, **policy_kw),
        batch_policy=BatchPolicy(max_batch=16, max_wait=0.01),
    )


def _feed(ctl, batches, *, outcome="served", queue=0, iters=10, t0=0.0):
    for i in range(batches):
        ctl.observe(
            [_R(outcome=outcome, iterations=iters)] * 4,
            queue_depth=queue,
            now=t0 + 0.01 * i,
        )


class TestPolicyValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError, match="window"):
            TunePolicy(window=0)
        with pytest.raises(ValueError, match="wait_shrink"):
            TunePolicy(wait_shrink=1.5)
        with pytest.raises(ValueError, match="wait_grow"):
            TunePolicy(wait_grow=0.5)


class TestBatchAdaptation:
    def test_miss_pressure_tightens(self):
        ctl = _controller()
        _feed(ctl, 2, outcome="deadline_miss")
        assert ctl.batch_policy.max_wait < ctl.base_batch_policy.max_wait
        assert ctl.batch_policy.max_batch > ctl.base_batch_policy.max_batch
        assert ctl.decisions[0]["action"] == "tighten_batch"

    def test_deep_queue_alone_does_not_tighten(self):
        """A deep queue with zero misses just means batching can drain it."""
        ctl = _controller()
        _feed(ctl, 2, queue=50)
        assert ctl.batch_policy == ctl.base_batch_policy
        assert ctl.decisions == []

    def test_calm_window_relaxes_back_to_base(self):
        ctl = _controller()
        _feed(ctl, 2, outcome="deadline_miss")
        tightened = ctl.batch_policy
        _feed(ctl, 4, outcome="served", t0=1.0)
        assert ctl.batch_policy.max_wait >= tightened.max_wait
        assert ctl.batch_policy.max_batch <= tightened.max_batch

    def test_tighten_is_clamped(self):
        ctl = _controller()
        _feed(ctl, 20, outcome="deadline_miss")
        assert ctl.batch_policy.max_wait >= ctl.policy.min_wait
        assert ctl.batch_policy.max_batch <= ctl.policy.max_batch


class TestStalenessAdaptation:
    def test_drift_tightens_stale_mode_only(self):
        stale = StalenessPolicy(mode="stale", degrade_factor=2.0, degrade_margin=4)
        ctl = TuneController(policy=TunePolicy(window=2), staleness=stale)
        _feed(ctl, 2, iters=10)  # establishes the baseline
        _feed(ctl, 2, iters=40, t0=1.0)  # 4x drift
        assert ctl.staleness.degrade_factor < stale.degrade_factor
        assert ctl.staleness.degrade_margin == 3

    def test_refactor_mode_untouched(self):
        ctl = _controller()  # default staleness: refactor mode
        _feed(ctl, 2, iters=10)
        _feed(ctl, 2, iters=40, t0=1.0)
        assert ctl.staleness == ctl.base_staleness


class TestSchedulerOverride:
    def test_cached_per_fingerprint(self):
        ctl = _controller()
        A = chain_matrix(60)
        first = ctl.scheduler_override(A)
        assert first == "superstep"
        assert ctl.scheduler_override(A) == first
        assert len(ctl._sched_cache) == 1

    def test_disabled_by_policy(self):
        ctl = _controller(adapt_scheduler=False)
        assert ctl.scheduler_override(wide_matrix(3, 8)) is None
        assert ctl._sched_cache == {}


def _structural_counts(M):
    an = cached_analysis(M)
    return count_supersteps(an), an.levels("lower").n_levels


class TestServeScheduler:
    def test_override_only_when_syncs_cheaper(self):
        steps, n_levels_lower = _structural_counts(chain_matrix(100))
        assert serve_scheduler(steps, n_levels_lower) == "superstep"
        assert steps < 2 * n_levels_lower

    def test_no_override_when_level_charge_wins(self):
        steps, n_levels_lower = _structural_counts(wide_matrix(4, 64))
        ov = serve_scheduler(steps, n_levels_lower)
        if ov is None:
            assert steps >= 2 * n_levels_lower
        else:
            assert steps < 2 * n_levels_lower


class TestMetrics:
    def test_counters_namespace(self):
        ctl = _controller()
        _feed(ctl, 2, outcome="deadline_miss")
        m = ctl.metrics()
        assert m["tune.windows"] == 1
        assert m["tune.decisions"] == len(ctl.decisions) == 1
        assert m["tune.action.tighten_batch"] == 1

