"""Next-generation trisolve schedulers (see ``docs/schedulers.md``).

The subsystem generalizes the original barrier/p2p pair into a
pluggable registry of synchronization strategies for the triangular
solve DAG:

* ``superstep`` — DAG-partition scheduling: fuse consecutive levels
  into supersteps whose dependency components live wholly on one
  thread, so the only synchronization is one barrier per boundary;
* ``elastic`` — stale-synchronous scheduling: threads race through
  bounded-staleness blocks and iterative correction sweeps repair the
  stale reads (exact at ``elastic_tol == 0``, approximate above);
* ``syncfree`` — self-scheduled flag polling over thousands of slow
  lanes (the GPU execution model of :func:`repro.machine.gpulike`);
* ``p2p`` / ``barrier`` — wrappers over the existing level-set paths.

Everything is driven by one frozen knob bundle, :class:`SchedOptions`,
and dispatched by name through :func:`get_scheduler`.
"""

from .base import (
    BarrierScheduler,
    ElasticScheduler,
    P2PScheduler,
    SuperstepScheduler,
    SyncFreeScheduler,
    TriSolveScheduler,
    available_schedulers,
    effective_sync_passes,
    get_scheduler,
    register_scheduler,
)
from .elastic import (
    ElasticSchedule,
    build_elastic_schedule,
    elastic_solve_part,
    simulate_elastic,
)
from .options import SCHEDULER_NAMES, SchedOptions
from .superstep import (
    SuperstepPlan,
    build_superstep_plan,
    superstep_stats,
    validate_superstep_plan,
)
from .syncfree import simulate_syncfree

__all__ = [
    "SCHEDULER_NAMES",
    "SchedOptions",
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
    "SuperstepPlan",
    "build_superstep_plan",
    "validate_superstep_plan",
    "superstep_stats",
    "ElasticSchedule",
    "build_elastic_schedule",
    "elastic_solve_part",
    "simulate_elastic",
    "simulate_syncfree",
]
