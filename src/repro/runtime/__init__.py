"""Real-thread execution of the p2p- and superstep-scheduled algorithms.

Python's GIL means these executors cannot show wall-clock speedup (the
repro limitation the machine simulator exists to work around), but they
*do* run the actual concurrent algorithm: multiple OS threads, each
owning a slice of rows, synchronizing through the same per-thread
progress counters the paper's spin-lock scheme uses.  Tests use them to
verify the claims the simulator takes for granted:

* the pruned (per-producer-thread, latest-row) wait rule is sufficient —
  no data race ever produces a wrong value;
* the factorization is deterministic: any thread count and any
  interleaving yields the bit-identical factor the sequential reference
  produces (the robustness property §II contrasts with fine-grained
  asynchronous ILU);
* fault tolerance: under an injected :class:`repro.resilience.FaultPlan`
  (stragglers, lost notifications) the watchdog falls back to the
  barrier schedule and the result is *still* bit-identical — faults
  cost time, never correctness.

All four executors run on one core (:mod:`repro.runtime.team`): one team
runner spawns and joins the workers and raises the first real error at
once, and one p2p row loop performs every dependency wait, reading the
pruned wait table :func:`repro.kernels.plans.build_producer_csr` — the
same table the DES and the ``repro.verify`` proofs use.
"""

from .pointtopoint import ProgressBoard, FaultInjectedBoard
from .threadpool import (
    threaded_factor,
    threaded_trisolve_lower,
    threaded_trisolve_superstep,
)
from .threaded_lower import threaded_factor_two_stage

__all__ = [
    "ProgressBoard",
    "FaultInjectedBoard",
    "threaded_factor",
    "threaded_trisolve_lower",
    "threaded_factor_two_stage",
    "threaded_trisolve_superstep",
]
