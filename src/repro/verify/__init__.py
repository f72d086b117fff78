"""Static analysis for the framework's scheduling and structure claims.

Javelin's correctness story is an *argument* — one monotonic progress
counter per thread suffices because the row→thread map's implied
ordering prunes the dependency DAG (§III-A) — and this package turns it
into executable checks:

* :mod:`repro.verify.races` — happens-before replay of a schedule or an
  execution trace with vector clocks; reports unordered reads with
  sanitizer-style witnesses.
* :mod:`repro.verify.pruning` — a domination proof that the pruned sync
  set the DES and the threaded runtime actually use covers the true
  DAG, plus the paper's sparsification (pruning-ratio) diagnostic and
  ER/SR lower-stage structural coverage checks.
* :mod:`repro.verify.invariants` — structural validators for CSR/CSC
  matrices, level sets, sweep plans and cached symbolic products
  (including the frozen-cache-arrays rule), installable as debug hooks
  on kernel dispatch and cache lookups.
* :mod:`repro.verify.lint` — repo-specific AST rules (JAV001–JAV010).
* :mod:`repro.verify.conservation` — the dynamic request-conservation
  auditor for the serving/cluster layers: every admitted request
  terminates in exactly one structured outcome, under any fault
  schedule (the cluster bench's planted-bug gate drops a failover
  re-route and demands this checker catch the loss).
* :mod:`repro.verify.protocol` — exhaustive small-N model checking of
  the cluster request protocol: every interleaving of dispatch /
  failover / hedge / crash / recover / join keeps the termination
  invariants, livelock-freedom under fairness, replication-prefix, and
  conformance replay of real :class:`ClusterService` traces.
* :mod:`repro.verify.deadlock` — static wait-for-graph analysis of the
  trisolve schedulers: superstep barrier acyclicity, sync-free
  flag-poll acyclicity, and the elastic ``final_sweep`` fixpoint bound,
  with wait-chain witnesses for tampered schedules.

Run everything with ``python -m repro.verify`` (or ``repro verify``;
the protocol and deadlock stages are opt-in via ``--protocol`` /
``--deadlock``); see ``docs/static_analysis.md``.
"""

from .conservation import ConservationReport, check_conservation
from .deadlock import (
    DeadlockReport,
    WaitWitness,
    check_elastic_schedule,
    check_superstep_deadlock,
    check_syncfree_deadlock,
)
from .invariants import (
    InvariantViolation,
    disable_debug_validation,
    enable_debug_validation,
    validate,
    validate_analysis,
    validate_csc,
    validate_csr,
    validate_levels,
    validate_plan,
)
from .lint import Finding, RULES, lint_paths, lint_source
from .protocol import (
    ConformanceReport,
    ProtocolConfig,
    ProtocolReport,
    ProtocolWitness,
    check_cluster_trace,
    check_replication_prefix,
    model_check,
    witness_trace_events,
)
from .pruning import (
    PruningReport,
    check_lower_er,
    check_lower_sr,
    check_pruning,
)
from .races import (
    RaceReport,
    RaceWitness,
    replay_schedule,
    replay_superstep_schedule,
    replay_trace,
    sync_edges_from_producer_csr,
    thread_sequences,
)

__all__ = [
    "ConservationReport",
    "check_conservation",
    "ProtocolConfig",
    "ProtocolWitness",
    "ProtocolReport",
    "ConformanceReport",
    "model_check",
    "check_cluster_trace",
    "check_replication_prefix",
    "witness_trace_events",
    "DeadlockReport",
    "WaitWitness",
    "check_superstep_deadlock",
    "check_syncfree_deadlock",
    "check_elastic_schedule",
    "InvariantViolation",
    "validate",
    "validate_csr",
    "validate_csc",
    "validate_levels",
    "validate_plan",
    "validate_analysis",
    "enable_debug_validation",
    "disable_debug_validation",
    "Finding",
    "RULES",
    "lint_source",
    "lint_paths",
    "PruningReport",
    "check_pruning",
    "check_lower_er",
    "check_lower_sr",
    "RaceWitness",
    "RaceReport",
    "replay_schedule",
    "replay_superstep_schedule",
    "replay_trace",
    "thread_sequences",
    "sync_edges_from_producer_csr",
]
