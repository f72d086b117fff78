"""repro.serve — a deterministic batched preconditioned-solve service.

The serving layer closes the loop the paper opens: Javelin makes one
incomplete factorization cheap to *apply* many times; a serving tier
is where "many times" actually comes from.  This package turns the
stack below it into a request/response system:

* :mod:`repro.serve.request` — :class:`SolveRequest` /
  :class:`RequestResult` and the closed outcome vocabulary
  (``served``, ``deadline_miss``, ``rejected``, ``breakdown``);
* :mod:`repro.serve.queue` — bounded :class:`AdmissionQueue` with
  backpressure (reject / shed-oldest) and per-tenant fairness;
* :mod:`repro.serve.batcher` — :class:`MicroBatcher` coalescing
  compatible requests into multi-RHS blocks for the level-batched
  trisolve kernels (close on max-size, max-wait, deadline pressure);
* :mod:`repro.serve.factor_cache` — pattern-keyed LRU of
  :class:`~repro.resilience.ResilientFactor`-built preconditioners;
* :mod:`repro.serve.workers` — :class:`WorkerShard` and the
  virtual-clock :class:`SolveService` event loop (deadline-aware
  factorization demotion, fault-plan perturbations, metric wiring);
* :mod:`repro.serve.workload` — seeded open-loop Poisson workloads
  and the run summaries/signatures the bench gates compare
  (``benchmarks/bench_serve.py``).

The core is synchronous and single-threaded on a *virtual* clock:
time is charged by a :class:`CostModel`, so every run — including
fault-injected ones — replays bit-for-bit from its seed.  Batching is
numerically invisible: a batched column is bit-identical to the same
request served alone (asserted by property tests and the bench gate).
"""

from .request import OUTCOMES, SLA_CLASSES, RequestResult, SolveRequest
from .queue import ADMISSION_POLICIES, FAIRNESS_MODES, AdmissionQueue
from .batcher import Batch, BatchPolicy, MicroBatcher
from .factor_cache import FactorCache, FactorEntry, live_factor_caches
from .staleness import STALENESS_MODES, StalenessPolicy
from .workers import SOLVERS, CostModel, SolveService, WorkerShard, blocked_richardson
from .workload import (
    WORKLOAD_SHAPES,
    WorkloadSpec,
    arrival_rate,
    build_matrices,
    generate_requests,
    summarize,
)

__all__ = [
    "OUTCOMES",
    "SLA_CLASSES",
    "SolveRequest",
    "RequestResult",
    "ADMISSION_POLICIES",
    "FAIRNESS_MODES",
    "AdmissionQueue",
    "STALENESS_MODES",
    "StalenessPolicy",
    "BatchPolicy",
    "Batch",
    "MicroBatcher",
    "FactorCache",
    "FactorEntry",
    "live_factor_caches",
    "SOLVERS",
    "CostModel",
    "WorkerShard",
    "SolveService",
    "blocked_richardson",
    "WORKLOAD_SHAPES",
    "WorkloadSpec",
    "arrival_rate",
    "build_matrices",
    "generate_requests",
    "summarize",
]
