"""Even-Rows (ER) lower-stage method (§III-B, Figs. 7–8).

When more rows are excluded from level scheduling than there are
threads, each thread takes a contiguous block of the excluded rows and,
independently, eliminates each row's *upper-stage* columns
(``FACTOR_L``: everything left of the corner), accumulating updates
into the row's corner entries.  A barrier, then the corner block
(``L_{k,2}``/``U_{k,1}``) is factored — serially by default, which the
paper finds "good enough" for most matrices.

In permuted space the excluded rows are ``m .. n-1`` and the corner is
the trailing ``(n-m) × (n-m)`` block.  Each row's columns are still
eliminated in ascending order, so the ER order gives the sequential
reference's bits: this module keeps the partition (:class:`EvenRows`)
and its timing (:func:`simulate_lower_er`).  The one place the order
runs for real is :func:`repro.runtime.threaded_factor`, the one
real-thread factor executor, which calls
:func:`repro.core.iluk.factor_row` with a column window for each phase
(and resumes a row from its last finished phase when a stalled wait
sends the run to the watchdog fallback); :meth:`repro.core.javelin.JavelinILU.factor` runs the
``ilu_factor`` kernel, which gives the same bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix

__all__ = ["EvenRows", "simulate_lower_er"]


@dataclass
class EvenRows:
    """Static block partition of lower rows ``m .. n-1`` over threads."""

    m: int
    n: int
    n_threads: int

    def blocks(self):
        """Yield (thread, row_lo, row_hi) contiguous assignments."""
        total = self.n - self.m
        base, extra = divmod(total, self.n_threads)
        lo = self.m
        for t in range(self.n_threads):
            size = base + (1 if t < extra else 0)
            yield t, lo, lo + size
            lo += size


def simulate_lower_er(
    S: CSRMatrix,
    m,
    machine: SimMachine,
    split_costs,
    *,
    start_time=0.0,
    parallel_corner=False,
    numa_aware=False,
    trace: ExecutionTrace | None = None,
):
    """Simulate the ER stage starting at ``start_time``.

    Parameters
    ----------
    S:
        Permuted pattern (used only for row count here; costs are
        precomputed).
    split_costs:
        ``((flops_L, touched_L), (flops_C, touched_C))`` from
        :func:`repro.core.symbolic.row_factor_costs_split`.
    parallel_corner:
        The paper notes the corner "can be done in serial or parallel";
        serial is the default.  Parallel mode charges the corner's
        critical path (one level-scheduled sweep) instead of its sum.
    numa_aware:
        §V's proposed ER fix ("a more static scheduling or NUMA-aware
        blocking of the distribution of the lower rows"): blocks are
        first-touch local to their thread's socket, so their traffic is
        charged at local cost even when two sockets are active.

    Returns ``(makespan, trace)``.
    """
    n = S.n_rows
    p = machine.n_threads
    (fl, tl), (fc, tc) = split_costs
    if trace is None:
        trace = ExecutionTrace(p)
    er = EvenRows(m=m, n=n, n_threads=p)
    remote = 0.0 if numa_aware else None
    block_finish = np.full(p, float(start_time))
    for t, lo, hi in er.blocks():
        clock = float(start_time)
        for r in range(lo, hi):
            cost = machine.work_time(fl[r], tl[r], thread=t, remote=remote)
            trace.record(t, clock, clock + cost, label=("er_row", r))
            clock += cost
        block_finish[t] = clock
    clock = float(block_finish.max()) + machine.barrier_cost()
    if not parallel_corner:
        corner_cost = sum(
            machine.work_time(fc[r], tc[r], thread=0) for r in range(m, n)
        )
        if corner_cost > 0:
            trace.record(0, clock, clock + corner_cost, label=("er_corner",))
        clock += corner_cost
    else:
        # level-schedule the corner rows on their internal dependencies
        finish = {}
        thread_time = np.full(p, clock)
        for idx, r in enumerate(range(m, n)):
            t = idx % p
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            deps = cols[(cols >= m) & (cols < r)]
            start = thread_time[t]
            for d in deps:
                if int(d) in finish:
                    start = max(start, finish[int(d)] + machine.spec.spin_poll)
            cost = machine.work_time(fc[r], tc[r], thread=t)
            trace.record(t, start, start + cost, label=("er_corner_row", r))
            finish[int(r)] = start + cost
            thread_time[t] = start + cost
        clock = float(thread_time.max())
    return clock, trace
