"""Trisolve schedulers (see ``docs/schedulers.md``).

The paper compares two synchronization strategies for the triangular
solve DAG, a barrier per level and point-to-point waits; this package
adds three more:

* ``superstep`` — DAG-partition scheduling: fuse consecutive levels
  into supersteps whose dependency components live wholly on one
  thread, so the only synchronization is one barrier per boundary;
* ``elastic`` — stale-synchronous scheduling: threads race through
  bounded-staleness blocks and iterative correction sweeps repair the
  stale reads (exact at ``elastic_tol == 0``, approximate above);
* ``syncfree`` — self-scheduled flag polling over thousands of slow
  lanes (the GPU execution model of :func:`repro.machine.gpulike`);
* ``p2p`` / ``barrier`` — the existing level-set paths.

Every knob lives in one frozen :class:`SchedOptions`.
:func:`simulate_schedule` takes a name from :data:`SCHEDULER_NAMES`
and returns the modelled time.  The numeric solve of every exact mode is
the apply of :func:`~repro.kernels.trisolve.factor_solver`; elastic's is
:func:`elastic_solve`.
"""

from .base import simulate_schedule, simulate_syncfree
from .elastic import (
    ElasticSchedule,
    build_elastic_schedule,
    elastic_solve,
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

__all__ = [
    "SCHEDULER_NAMES",
    "SchedOptions",
    "simulate_schedule",
    "SuperstepPlan",
    "build_superstep_plan",
    "validate_superstep_plan",
    "superstep_stats",
    "ElasticSchedule",
    "build_elastic_schedule",
    "elastic_solve",
    "elastic_solve_part",
    "simulate_elastic",
    "simulate_syncfree",
]
