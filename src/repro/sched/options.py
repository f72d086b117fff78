"""The one knob surface of the scheduler subsystem.

Every scheduler reads its tunables from a single frozen
:class:`SchedOptions` — mirroring ``ScheduleOptions`` in ``core`` — so
call sites (serve, benches, tests) thread one value instead of loose
kwargs, and the symbolic cache can key superstep plans on the exact
subset of knobs that shapes them (:meth:`SchedOptions.superstep_key`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

__all__ = ["SCHEDULER_NAMES", "SchedOptions"]

#: the scheduler vocabulary, in the order the CLI surfaces exposes it
SCHEDULER_NAMES = ("p2p", "barrier", "superstep", "elastic", "syncfree")


@dataclass(frozen=True)
class SchedOptions:
    """Knobs for the trisolve schedulers (:mod:`repro.sched`).

    ``n_threads`` is the thread count superstep plans are built for.
    The superstep knobs bound how many levels a DAG partition may fuse
    (``max_superstep_rows``) and how much per-thread imbalance a fusion
    may introduce (``balance_factor``, relative to the larger of the
    perfectly-balanced share and the window's critical-path work — a
    pure chain is always fusable, it was serial anyway).  The elastic
    knobs set the staleness budget in levels (a block spans
    ``staleness + 1`` levels and threads may read values up to that
    many levels stale) and the correction-sweep controls:
    ``elastic_tol == 0`` runs sweeps to the exact fixpoint
    (bit-identical to the p2p path), a positive tolerance stops early.
    """

    n_threads: int = 8
    # --- superstep (DAG partition) ---
    max_superstep_rows: int = 512
    balance_factor: float = 1.5
    # --- elastic (stale-synchronous) ---
    staleness: int = 4
    max_sweeps: int = 128
    elastic_tol: float = 0.0

    def __post_init__(self):
        if self.n_threads < 1:
            raise ValueError(f"n_threads must be >= 1, got {self.n_threads}")
        if self.max_superstep_rows < 1:
            raise ValueError(
                f"max_superstep_rows must be >= 1, got {self.max_superstep_rows}"
            )
        if not self.balance_factor >= 1.0:  # NaN fails every comparison
            raise ValueError(
                f"balance_factor must be >= 1.0, got {self.balance_factor}"
            )
        if self.staleness < 0:
            raise ValueError(f"staleness must be >= 0, got {self.staleness}")
        if self.max_sweeps < 1:
            raise ValueError(f"max_sweeps must be >= 1, got {self.max_sweeps}")
        if not self.elastic_tol >= 0.0:
            raise ValueError(f"elastic_tol must be >= 0, got {self.elastic_tol}")

    def with_(self, **kw) -> "SchedOptions":
        """A copy with selected fields overridden."""
        return replace(self, **kw)

    def superstep_key(self):
        """The knob subset a superstep plan depends on (cache key part)."""
        return (int(self.max_superstep_rows), float(self.balance_factor))

    def elastic_key(self):
        """The knob subset an elastic schedule depends on (cache key part)."""
        return (int(self.staleness),)
