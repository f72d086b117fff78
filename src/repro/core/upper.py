"""Upper stage: level-scheduled up-looking ILU with p2p synchronization.

Rows live in *permuted* (level-ordered) space: upper-stage rows are
``0 .. m-1`` with level ``l`` occupying ``[level_ptr[l], level_ptr[l+1])``.
Within a level, rows are dealt round-robin to threads in ascending
order — the paper's Fig. 4 mapping whose *implied ordering* prunes the
dependency set: a thread's rows execute in program order, so waiting for
"thread u has finished its rows up to X" subsumes every earlier
dependency on u.  The simulator therefore charges, per row, at most one
spin-wait per distinct producer thread (the sparsified synchronization
of Park et al.), instead of a barrier per level.

This module holds the schedule and its timing only: the numeric factor
is one loop over :func:`repro.core.iluk.factor_row` (a row's
elimination reads only finished rows, so any order that respects the
dependencies gives the sequential reference's bits), and the real-thread
p2p executor lives in :mod:`repro.runtime`.  :func:`simulate_upper_p2p` /
:func:`simulate_upper_barrier` replay the schedule on a
:class:`~repro.machine.SimMachine` to produce the time the paper would
have measured.
"""

from __future__ import annotations

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from ..kernels import get_kernel

__all__ = [
    "assign_round_robin",
    "assign_dynamic",
    "simulate_upper_p2p",
    "simulate_upper_barrier",
]


def assign_round_robin(level_ptr, n_threads):
    """Fig. 4's row→thread map: deal rows to threads in level order.

    The dealing counter runs *continuously across levels* (each level
    starts dealing where the previous one stopped), so a run of small
    levels still spreads across all threads and pipelines under p2p
    synchronization — the af_shell3 case (§VII: median level size 5,
    yet "level scheduling still does a good job").

    Returns ``thread_of`` for rows ``0 .. level_ptr[-1]-1``.
    """
    m = int(level_ptr[-1])
    thread_of = np.arange(m, dtype=np.int64) % n_threads
    return thread_of


def assign_dynamic(level_ptr, n_threads, machine, flops, touched, chunk=1):
    """OpenMP DYNAMIC(chunk) self-scheduling assignment.

    The paper's configuration (§IV): "OpenMP with the DYNAMIC scheduling
    and CHUNK_SIZE=1".  Rows are handed out in level order, ``chunk`` at
    a time, to whichever thread's work estimate is currently smallest —
    the greedy balance a dynamic runtime converges to, plus a per-grab
    dispatch overhead that static dealing does not pay.  Load estimates
    use the row cost model; dependencies are settled later by the DES.

    Returns ``(thread_of, grab_overhead_per_row)``.
    """
    m = int(level_ptr[-1])
    thread_of = np.empty(m, dtype=np.int64)
    load = np.zeros(n_threads)
    grab = machine.spec.task_dispatch_overhead * 0.25  # a chunk grab is a
    # fetch-and-add on the loop counter, far cheaper than a task dispatch
    if m:
        # per-chunk work estimates, vectorized: one work_time_batch pass
        # per distinct thread rate class (SMT sharing / NUMA placement
        # can differentiate threads), then a segment sum per chunk —
        # replacing the O(rows) of Python work_time calls the generator
        # expression paid inside the chunk loop
        starts = np.arange(0, m, chunk)
        flops = np.asarray(flops[:m], dtype=np.float64)
        touched = np.asarray(touched[:m], dtype=np.float64)
        chunk_cost_by_class = {}
        chunk_cost_of = []
        for t in range(n_threads):
            key = (float(machine._flops_per_thread[t]), float(machine._bw_per_thread[t]))
            if key not in chunk_cost_by_class:
                cost = machine.work_time_batch(flops, touched, thread=t)
                chunk_cost_by_class[key] = np.add.reduceat(cost, starts)
            chunk_cost_of.append(chunk_cost_by_class[key])
        for ci, lo in enumerate(starts):
            hi = min(int(lo) + chunk, m)
            t = int(np.argmin(load))
            thread_of[lo:hi] = t
            load[t] += grab + chunk_cost_of[t][ci]
    return thread_of, grab / max(chunk, 1)


def simulate_upper_p2p(
    S: CSRMatrix,
    level_ptr,
    machine: SimMachine,
    flops,
    touched,
    *,
    start_time=0.0,
    trace: ExecutionTrace | None = None,
    policy="static",
    chunk=1,
    backend="batched",
    fault_plan=None,
    fault_report=None,
):
    """Simulate the point-to-point upper stage.

    Parameters
    ----------
    S:
        Pattern of the (permuted) factor — dependencies are its strict-
        lower entries.
    level_ptr:
        Upper-stage level boundaries in permuted row ids.
    flops, touched:
        Per-row cost-model inputs (from
        :func:`repro.core.symbolic.row_factor_costs` on the permuted S).
    start_time:
        Simulation clock at stage entry.
    policy, chunk:
        Row→thread assignment: "static" (continuous round-robin deal,
        the default) or "dynamic" (OpenMP DYNAMIC(chunk) self-
        scheduling, the paper's §IV configuration — better balanced on
        skewed rows, pays a per-grab overhead).
    backend:
        DES kernel backend: "batched" (default — one-shot producer-CSR
        dependency table plus vectorized ``work_time_batch`` row costs)
        or "scalar" (the per-row reference loop).  Both produce
        identical results; see ``repro.kernels``.
    fault_plan, fault_report:
        Optional :class:`repro.resilience.FaultPlan` injecting spin
        faults and dropped notifications into the DES (stragglers are
        carried by the machine itself), and a
        :class:`repro.resilience.FaultRunReport` filled with what
        happened.  Both backends honor them identically.

    Returns ``(makespan, finish, trace)`` where ``finish[r]`` is each
    row's completion time and makespan is the last thread's finish.
    """
    m = int(level_ptr[-1])
    p = machine.n_threads
    per_row_overhead = 0.0
    if policy == "static":
        thread_of = assign_round_robin(level_ptr, p)
    elif policy == "dynamic":
        thread_of, per_row_overhead = assign_dynamic(
            level_ptr, p, machine, flops, touched, chunk=chunk
        )
    else:
        raise ValueError(f"unknown scheduling policy {policy!r}")
    return get_kernel("upper_p2p_sim", backend)(
        S,
        machine,
        thread_of,
        flops,
        touched,
        m=m,
        per_row_overhead=per_row_overhead,
        start_time=start_time,
        trace=trace,
        fault_plan=fault_plan,
        fault_report=fault_report,
    )


def simulate_upper_barrier(
    S: CSRMatrix,
    level_ptr,
    machine: SimMachine,
    flops,
    touched,
    *,
    start_time=0.0,
    trace: ExecutionTrace | None = None,
):
    """Simulate the traditional barrier-per-level schedule (comparison).

    Identical row→thread map, but every level ends with a full barrier:
    the next level starts only after the slowest thread finishes, plus
    the barrier latency — the overhead Javelin's p2p design removes.
    """
    m = int(level_ptr[-1])
    p = machine.n_threads
    thread_of = assign_round_robin(level_ptr, p)
    finish = np.zeros(m)
    if trace is None:
        trace = ExecutionTrace(p)
    clock = float(start_time)
    for l in range(len(level_ptr) - 1):
        lo, hi = int(level_ptr[l]), int(level_ptr[l + 1])
        thread_time = np.full(p, clock)
        for r in range(lo, hi):
            t = int(thread_of[r])
            start = thread_time[t]
            stop = start + machine.work_time(flops[r], touched[r], thread=t)
            finish[r] = stop
            thread_time[t] = stop
            trace.record(t, start, stop, label=("row", r))
        clock = float(thread_time.max())
        if hi < m or l < len(level_ptr) - 2:
            clock += machine.barrier_cost()
    return clock, finish, trace
