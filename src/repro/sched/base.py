"""The common scheduler interface and its registry.

Five strategies execute the same triangular-solve DAG with different
synchronization economies:

========== =============================== ======== =======================
name       sync structure                  exact?   wins when
========== =============================== ======== =======================
barrier    one barrier per level           yes      never (the baseline)
p2p        per-dependency spin waits       yes      wide levels, cheap spin
superstep  one barrier per fused window    yes      many thin levels
elastic    bounded-stale + correction      tunable  shallow/wide DAGs
syncfree   per-dependency flag polls       yes      GPU-like lane counts
========== =============================== ======== =======================

Every scheduler answers three questions through one interface: *what is
the modelled time on this machine* (:meth:`TriSolveScheduler.simulate`),
*what does the numeric solve give* (:meth:`TriSolveScheduler.solve`),
and *how many synchronization points does one preconditioner apply pay*
(:func:`effective_sync_passes`, the serving layer's cost-model input).
Exact schedulers (``exact`` is True, or elastic with ``elastic_tol == 0``)
return solves bit-identical to the p2p/level-batched reference path.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from ..kernels import cached_analysis
from ..kernels.des import superstep_sim
from .elastic import elastic_solve_part, simulate_elastic
from .options import SCHEDULER_NAMES, SchedOptions
from .syncfree import simulate_syncfree

__all__ = [
    "TriSolveScheduler",
    "BarrierScheduler",
    "P2PScheduler",
    "SuperstepScheduler",
    "ElasticScheduler",
    "SyncFreeScheduler",
    "register_scheduler",
    "get_scheduler",
    "available_schedulers",
    "effective_sync_passes",
]

_REGISTRY: dict[str, "TriSolveScheduler"] = {}


def register_scheduler(cls):
    """Class decorator: instantiate ``cls`` and file it under ``cls.name``."""
    inst = cls()
    _REGISTRY[inst.name] = inst
    return cls


def get_scheduler(name: str) -> "TriSolveScheduler":
    """The registered scheduler called ``name`` (see ``SCHEDULER_NAMES``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown scheduler {name!r}; one of {tuple(sorted(_REGISTRY))}"
        ) from None


def available_schedulers() -> tuple[str, ...]:
    """Registered scheduler names, in the canonical CLI order."""
    return tuple(n for n in SCHEDULER_NAMES if n in _REGISTRY)


class TriSolveScheduler(ABC):
    """One synchronization strategy for the triangular-solve DAG.

    ``name`` is the registry/CLI identity; ``exact`` declares whether
    :meth:`solve` is bit-identical to the reference path for *all*
    option values (elastic is exact only at ``elastic_tol == 0``, so it
    reports False and tests pin the exact mode explicitly).
    """

    name: str = ""
    exact: bool = True

    @staticmethod
    def _opts(opts) -> SchedOptions:
        return SchedOptions() if opts is None else opts

    @abstractmethod
    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        """Modelled solve time of pattern ``S`` on a SimMachine."""

    def solve(self, F, b, *, opts=None, analysis=None) -> np.ndarray:
        """Numeric ``x = U⁻¹ L⁻¹ b`` on the combined factor ``F``.

        Every exact mode only reorders or re-synchronizes the level
        sweep's rows; in one process its numerics are the shared sweep,
        bit for bit.  Only the elastic mode overrides this.
        """
        from ..core.trisolve import trisolve_factor_levels

        return trisolve_factor_levels(F, b, analysis=analysis)

    def sync_points(self, S, *, opts=None) -> int:
        """Synchronization points of one full (lower+upper) apply."""
        analysis = cached_analysis(S)
        return int(
            analysis.plan("lower").n_levels + analysis.plan("upper").n_levels
        )


@register_scheduler
class BarrierScheduler(TriSolveScheduler):
    """CSR-LS: the barrier-per-level baseline (Park et al.'s setting)."""

    name = "barrier"
    exact = True

    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        from ..core.trisolve import simulate_trisolve_barrier

        levels = cached_analysis(S).levels("lower")
        return simulate_trisolve_barrier(S, levels, machine, both=both)


@register_scheduler
class P2PScheduler(TriSolveScheduler):
    """LS: Javelin's point-to-point sparsified synchronization."""

    name = "p2p"
    exact = True

    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        from ..core.trisolve import simulate_trisolve_p2p

        levels = cached_analysis(S).levels("lower")
        return simulate_trisolve_p2p(S, levels, machine, both=both)


@register_scheduler
class SuperstepScheduler(TriSolveScheduler):
    """DAG-partition supersteps: fused level windows, one barrier each."""

    name = "superstep"
    exact = True

    def plan(self, S, part="lower", *, opts=None, n_threads=None):
        opts = self._opts(opts)
        p = opts.n_threads if n_threads is None else n_threads
        return cached_analysis(S).superstep_plan(part, n_threads=p, opts=opts)

    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        """Each part's cached plan on the ``superstep_sim`` DES kernel."""
        from ..core.trisolve import simulate_sweeps

        analysis = cached_analysis(S)

        def sweep(part, flops, touched, start_time):
            plan = analysis.superstep_plan(part, n_threads=machine.n_threads, opts=opts)
            return superstep_sim(
                S, machine, plan, flops, touched, start_time=start_time
            )[0]

        return simulate_sweeps(S, machine, sweep, both=both)

    def sync_points(self, S, *, opts=None) -> int:
        opts = self._opts(opts)
        analysis = cached_analysis(S)
        pl = analysis.superstep_plan("lower", n_threads=opts.n_threads, opts=opts)
        pu = analysis.superstep_plan("upper", n_threads=opts.n_threads, opts=opts)
        return int(pl.n_steps + pu.n_steps)


@register_scheduler
class ElasticScheduler(TriSolveScheduler):
    """Stale-synchronous blocks + iterative correction sweeps."""

    name = "elastic"
    exact = False  # exact only at elastic_tol == 0 (the default)

    def schedule(self, S, part="lower", *, opts=None):
        opts = self._opts(opts)
        return cached_analysis(S).elastic_schedule(part, staleness=opts.staleness)

    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        """Blocks race, correction sweeps repair (:func:`simulate_elastic`)."""
        from ..core.trisolve import simulate_sweeps

        opts = self._opts(opts)
        analysis = cached_analysis(S)

        def sweep(part, flops, touched, start_time):
            sched = analysis.elastic_schedule(part, staleness=opts.staleness)
            return simulate_elastic(
                S, sched, machine, flops, touched,
                start_time=start_time, max_sweeps=opts.max_sweeps,
            )

        return simulate_sweeps(S, machine, sweep, both=both)

    def solve(self, F, b, *, opts=None, analysis=None):
        opts = self._opts(opts)
        if analysis is None:
            analysis = cached_analysis(F)
        sl = analysis.elastic_schedule("lower", staleness=opts.staleness)
        su = analysis.elastic_schedule("upper", staleness=opts.staleness)
        tol, max_sweeps = opts.elastic_tol, opts.max_sweeps
        y = elastic_solve_part(F, b, sl, tol=tol, max_sweeps=max_sweeps)
        return elastic_solve_part(F, y, su, tol=tol, max_sweeps=max_sweeps)

    def sync_points(self, S, *, opts=None) -> int:
        opts = self._opts(opts)
        analysis = cached_analysis(S)
        total = 0
        for part in ("lower", "upper"):
            sched = analysis.elastic_schedule(part, staleness=opts.staleness)
            fs = sched.final_sweep
            lrows, level_ptr = sched.rows, sched.level_ptr
            n_sweeps = min(sched.n_sweeps, opts.max_sweeps)
            # one sync per (sweep, block-with-active-rows)
            for k in range(n_sweeps):
                active = fs >= k
                for b in range(sched.n_blocks):
                    lo, hi = sched.block_levels(b)
                    brows = lrows[int(level_ptr[lo]) : int(level_ptr[hi])]
                    if active[brows].any():
                        total += 1
        return total


@register_scheduler
class SyncFreeScheduler(TriSolveScheduler):
    """Self-scheduled flag polling (GPU-style); numerics are the reference."""

    name = "syncfree"
    exact = True

    def simulate(self, S, machine, *, opts=None, both=True) -> float:
        """The p2p sweep on lanes ``r mod p``; the stage hand-off is one
        device-wide flush, not per-level."""
        from ..core.trisolve import simulate_sweeps

        def sweep(part, flops, touched, start_time):
            return simulate_syncfree(
                S, machine, flops, touched, part=part, start_time=start_time
            )[0]

        return simulate_sweeps(S, machine, sweep, both=both)

    def sync_points(self, S, *, opts=None) -> int:
        return 1  # the lower→upper hand-off; everything else is a flag poll


def effective_sync_passes(F, scheduler: str, opts=None) -> int:
    """Synchronization points one preconditioner apply pays under ``scheduler``.

    The serving layer's cost model charges ``level_pass`` per sync point
    (historically ``2 × n_levels`` for the p2p/barrier schedulers); this
    generalizes the count so superstep/elastic/syncfree batches are
    priced by their actual synchronization economy.
    """
    return get_scheduler(scheduler).sync_points(F, opts=opts)
