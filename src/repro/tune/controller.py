"""Online controller: a deterministic feedback loop over serve counters.

The controller closes the loop over the serve counters: ``repro.obs``
records queue depth, deadline misses and iteration drift, and nothing
consumed them online — every knob stayed a static per-request setting.  The
controller watches those signals in fixed-size windows of completed
batches and adapts, between batches, which of the service's
already-bit-identical paths runs next:

* **scheduler** — per pattern, re-price the sync charge by overriding
  the batch's trisolve scheduler to ``superstep`` when the cached DAG
  partition pays fewer syncs than the level-set default (the dominant
  recoverable lever under shard slowdown faults);
* **batch shape** — under deadline pressure, shorten ``max_wait``
  (stop fishing for batch-mates) and widen ``max_batch`` (amortize the
  inflated per-pass charge across more columns); relax both back when
  the miss rate clears the low watermark;
* **staleness** — when mean iteration counts drift up (stale factors
  degrading convergence), tighten the
  :class:`~repro.serve.staleness.StalenessPolicy` degradation
  thresholds so refactors trigger sooner.

Everything is a pure function of the observed window counters, which
are themselves a pure function of the (seeded) workload — so a tuned
run replays identically, and the bitwise-identity guarantee of every
underlying path (batched columns, scheduler modes) is inherited rather
than asserted.

The controller deliberately has *no wall-clock inputs, no randomness
and no fitted model*: it reads no file, and determinism is what makes
the tuned serve bench a replayable artifact instead of a demo.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

__all__ = ["TunePolicy", "TuneController", "count_supersteps", "serve_scheduler"]

#: thread count the superstep plans are counted at
PLAN_THREADS = 8


def count_supersteps(analysis):
    """Supersteps of one full apply (lower + upper sweep) at ``PLAN_THREADS``."""
    return sum(
        int(analysis.superstep_plan(part, n_threads=PLAN_THREADS).n_steps)
        for part in ("lower", "upper")
    )


def serve_scheduler(superstep_steps, n_levels_lower):
    """Serving-loop scheduler override: ``"superstep"`` when the DAG
    partition pays fewer syncs than the level-set charge (two per lower
    level), else ``None`` (keep the p2p default).

    The structural rule of superstep scheduling (Böhnlein et al.,
    arXiv 2503.05408), restricted to superstep deliberately:
    it is the one exact mode whose serve-side sync economy is a pure
    count of the cached plan (``n_steps``), so the override is
    reproducible from two structural counts and provably changes only
    the virtual-time charge, never the applied numerics.
    """
    if superstep_steps < 2 * n_levels_lower:
        return "superstep"
    return None


@dataclass(frozen=True)
class TunePolicy:
    """Watermarks and step sizes of the feedback loop.

    Windows count *batches*, not requests — batch completion is the
    event the service hands the controller, and a window of batches
    smooths over batch-size variance without needing a clock.
    """

    window: int = 8
    miss_high: float = 0.20  # tighten above this windowed miss rate
    miss_low: float = 0.02  # relax below this
    queue_high: int = 12  # tighten when the queue backs up this far
    min_wait: float = 0.002
    max_wait: float = 0.02
    min_batch: int = 4
    max_batch: int = 64
    wait_shrink: float = 0.5
    wait_grow: float = 1.5
    drift_ratio: float = 1.5  # window mean iters vs baseline ⇒ drift
    stale_tighten: float = 0.75  # degrade_factor multiplier on drift
    adapt_scheduler: bool = True
    adapt_batch: bool = True
    adapt_staleness: bool = True

    def __post_init__(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 < self.wait_shrink < 1.0:
            raise ValueError(f"wait_shrink must be in (0, 1), got {self.wait_shrink}")
        if self.wait_grow <= 1.0:
            raise ValueError(f"wait_grow must be > 1, got {self.wait_grow}")


@dataclass
class _Window:
    """Counters of the current adaptation window."""

    batches: int = 0
    requests: int = 0
    misses: int = 0
    iters: float = 0.0
    peak_queue: int = 0

    def reset(self):
        self.batches = self.requests = self.misses = 0
        self.iters = 0.0
        self.peak_queue = 0


class TuneController:
    """Holds the adaptive knobs the service reads between batches.

    Wire-up (see :class:`repro.serve.workers.SolveService`): the
    service consults :meth:`scheduler_override` when dispatching a
    batch whose requests did not pin a scheduler, and calls
    :meth:`observe` after each batch completes; it then re-reads
    :attr:`batch_policy` and :attr:`staleness`.
    The service never imports this module — the controller is duck-
    typed and opt-in (``SolveService(controller=...)``), so the untuned
    path is untouched.
    """

    def __init__(self, *, policy=None, batch_policy=None, staleness=None):
        self.policy = policy or TunePolicy()
        # base_* are what "relaxed" returns to; current values start there
        from ..serve.batcher import BatchPolicy
        from ..serve.staleness import StalenessPolicy

        self.base_batch_policy = batch_policy or BatchPolicy()
        self.batch_policy = self.base_batch_policy
        self.base_staleness = staleness or StalenessPolicy()
        self.staleness = self.base_staleness
        self._window = _Window()
        self._baseline_iters = None  # first completed window's mean
        self._sched_cache: dict = {}  # pattern fingerprint -> override
        self.decisions: list = []  # (now, action, value) audit log
        self.n_windows = 0

    # ------------------------------------------------------------------
    def scheduler_override(self, A):
        """Scheduler to run an unpinned batch under (or ``None``).

        Pure per-pattern decision, cached by pattern fingerprint: the
        superstep rule over two counts read off the symbolic cache, so
        the steady-state cost is one dict lookup per batch.
        """
        if not self.policy.adapt_scheduler:
            return None
        from ..kernels.cache import cached_analysis, pattern_fingerprint

        fp = pattern_fingerprint(A)
        if fp not in self._sched_cache:
            an = cached_analysis(A)
            self._sched_cache[fp] = serve_scheduler(
                count_supersteps(an), an.levels("lower").n_levels
            )
        return self._sched_cache[fp]

    # ------------------------------------------------------------------
    def observe(self, results, *, queue_depth, now):
        """Account one completed batch; adapt when the window fills."""
        w = self._window
        w.batches += 1
        w.requests += len(results)
        w.misses += sum(1 for r in results if r.outcome == "deadline_miss")
        w.iters += float(sum(r.iterations for r in results))
        w.peak_queue = max(w.peak_queue, int(queue_depth))
        if w.batches >= self.policy.window:
            self._adapt(now)
            w.reset()

    def _adapt(self, now):
        pol = self.policy
        w = self._window
        self.n_windows += 1
        miss_rate = w.misses / w.requests if w.requests else 0.0
        mean_iters = w.iters / w.requests if w.requests else 0.0
        if self._baseline_iters is None and mean_iters > 0.0:
            self._baseline_iters = mean_iters

        if pol.adapt_batch:
            bp = self.batch_policy
            # queue depth alone is not distress — a deep queue with no
            # misses just means batching has room to drain it; only
            # tighten on queue pressure when misses corroborate
            if miss_rate > pol.miss_high or (
                w.peak_queue > pol.queue_high and miss_rate > pol.miss_low
            ):
                new_wait = max(pol.min_wait, bp.max_wait * pol.wait_shrink)
                new_batch = min(pol.max_batch, bp.max_batch * 2)
                if (new_wait, new_batch) != (bp.max_wait, bp.max_batch):
                    self.batch_policy = dataclasses.replace(
                        bp, max_wait=new_wait, max_batch=new_batch
                    )
                    self._log(now, "tighten_batch", (new_wait, new_batch))
            elif miss_rate < pol.miss_low and w.peak_queue <= pol.queue_high // 2:
                base = self.base_batch_policy
                new_wait = min(base.max_wait, bp.max_wait * pol.wait_grow)
                new_batch = max(base.max_batch, bp.max_batch // 2)
                if (new_wait, new_batch) != (bp.max_wait, bp.max_batch):
                    self.batch_policy = dataclasses.replace(
                        bp, max_wait=new_wait, max_batch=new_batch
                    )
                    self._log(now, "relax_batch", (new_wait, new_batch))

        if pol.adapt_staleness and self._baseline_iters:
            drifting = mean_iters > pol.drift_ratio * self._baseline_iters
            st = self.staleness
            if drifting and st.mode == "stale":
                tightened = dataclasses.replace(
                    st,
                    degrade_factor=max(1.0, st.degrade_factor * pol.stale_tighten),
                    degrade_margin=max(1, st.degrade_margin - 1),
                )
                if tightened != st:
                    self.staleness = tightened
                    self._log(
                        now,
                        "tighten_staleness",
                        (tightened.degrade_factor, tightened.degrade_margin),
                    )
            elif not drifting and st != self.base_staleness:
                self.staleness = self.base_staleness
                self._log(now, "relax_staleness", None)

    def _log(self, now, action, value):
        self.decisions.append({"now": float(now), "action": action, "value": value})

    # ------------------------------------------------------------------
    def metrics(self):
        """Counters for the obs registry (``tune.*`` namespace)."""
        actions: dict = {}
        for d in self.decisions:
            actions[d["action"]] = actions.get(d["action"], 0) + 1
        return {
            "tune.windows": self.n_windows,
            "tune.decisions": len(self.decisions),
            "tune.sched_overrides": sum(
                1 for v in self._sched_cache.values() if v is not None
            ),
            **{f"tune.action.{k}": v for k, v in sorted(actions.items())},
        }
