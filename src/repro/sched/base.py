"""The trisolve schedulers, dispatched by name.

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

Two functions of the name answer the per-strategy questions: the
modelled time on a machine (:func:`simulate_schedule`) and the
synchronization points one preconditioner apply pays
(:func:`effective_sync_passes`, the serving layer's cost-model input).
The numerics have two paths only.  Every exact mode reorders or
re-synchronizes the level sweep's rows, so in one process its solve is
the apply :func:`~repro.kernels.trisolve.factor_solver` builds, bit for bit;
elastic runs :func:`~repro.sched.elastic.elastic_solve`, bit-identical
to it at ``elastic_tol == 0``.
"""

from __future__ import annotations

import numpy as np

from ..kernels import cached_analysis
from ..kernels.des import superstep_sim
from .elastic import simulate_elastic
from .options import SCHEDULER_NAMES, SchedOptions

__all__ = ["simulate_schedule", "effective_sync_passes", "simulate_syncfree"]


def _check_name(name):
    if name not in SCHEDULER_NAMES:
        raise ValueError(f"unknown scheduler {name!r}; one of {SCHEDULER_NAMES}")


def simulate_syncfree(
    S,
    machine,
    flops,
    touched,
    *,
    part: str = "lower",
    start_time: float = 0.0,
    trace=None,
):
    """Modelled time of the sync-free self-scheduled sweep (after Li's CUDA solver).

    No levels and no barriers: row ``r`` runs on lane ``r mod
    n_threads`` in row order (the upper part runs the rows in reverse),
    and starts when its lane is free and every dependency's ready flag
    has been observed — one ``sync_latency`` poll per *distinct
    producing lane*.  This is the p2p DES sweep
    (:func:`repro.core.upper.simulate_sweep`) under that order and lane
    map; it pays off on the :func:`repro.machine.gpulike` preset, where
    a device-wide barrier costs thousands of flag polls.  Returns
    ``(makespan, finish, trace)`` like the DES kernels; ``trace`` is
    the one passed in (None records nothing).
    """
    from ..core.upper import simulate_sweep

    order = np.arange(S.n_rows, dtype=np.int64)
    if part != "lower":
        order = order[::-1]
    makespan, finish, _ = simulate_sweep(
        S, machine, order, order % machine.n_threads, flops, touched,
        part=part, start_time=start_time, trace=trace,
    )
    return makespan, finish, trace


def simulate_schedule(name, S, machine, *, opts=None, both=True) -> float:
    """Modelled solve time of pattern ``S`` under scheduler ``name``.

    ``barrier``/``p2p`` are the paper's CSR-LS and LS sweeps over the
    lower level sets; superstep runs each part's cached plan on the
    ``superstep_sim`` DES kernel; elastic races blocks and prices its
    correction sweeps (:func:`simulate_elastic`); syncfree is the p2p
    sweep on lanes ``r mod p``, with one device-wide flush at the
    stage hand-off.  ``both=False`` models the lower sweep only.
    """
    from ..core.trisolve import (
        simulate_sweeps,
        simulate_trisolve_barrier,
        simulate_trisolve_p2p,
    )

    _check_name(name)
    opts = SchedOptions() if opts is None else opts
    analysis = cached_analysis(S)
    if name in ("barrier", "p2p"):
        sim = simulate_trisolve_barrier if name == "barrier" else simulate_trisolve_p2p
        return sim(S, analysis.levels("lower"), machine, both=both)

    def sweep(part, flops, touched, start_time):
        if name == "superstep":
            plan = analysis.superstep_plan(part, n_threads=machine.n_threads, opts=opts)
            return superstep_sim(
                S, machine, plan, flops, touched, start_time=start_time
            )[0]
        if name == "elastic":
            sched = analysis.elastic_schedule(part, staleness=opts.staleness)
            return simulate_elastic(
                S, sched, machine, flops, touched,
                start_time=start_time, max_sweeps=opts.max_sweeps,
            )
        return simulate_syncfree(
            S, machine, flops, touched, part=part, start_time=start_time
        )[0]

    return simulate_sweeps(S, machine, sweep, both=both)


def effective_sync_passes(F, name, opts=None) -> int:
    """Synchronization points one preconditioner apply pays under ``name``.

    The serving layer's cost model charges ``level_pass`` per sync point
    (``2 × n_levels`` for the p2p/barrier schedulers); superstep pays
    one per step of its plans at ``opts.n_threads``; elastic pays one
    per (sweep, block with rows still active); syncfree pays only the
    lower→upper hand-off.
    """
    _check_name(name)
    opts = SchedOptions() if opts is None else opts
    if name == "syncfree":
        return 1
    analysis = cached_analysis(F)
    total = 0
    for part in ("lower", "upper"):
        if name == "superstep":
            total += analysis.superstep_plan(
                part, n_threads=opts.n_threads, opts=opts
            ).n_steps
        elif name == "elastic":
            sched = analysis.elastic_schedule(part, staleness=opts.staleness)
            # block b stays active through sweep max(final_sweep over b)
            last = np.full(sched.n_blocks, -1, dtype=np.int64)
            np.maximum.at(last, sched.block_of, sched.final_sweep)
            n_sweeps = min(sched.n_sweeps, opts.max_sweeps)
            total += int(np.minimum(last + 1, n_sweeps).sum())
        else:
            total += analysis.plan(part).n_levels
    return total
