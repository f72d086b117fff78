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
is the ``ilu_factor`` kernel of :mod:`repro.core.iluk` (a row's
elimination reads only finished rows, so any order that respects the
dependencies gives the sequential reference's bits), and the real-thread
p2p executor lives in :mod:`repro.runtime`.  :func:`simulate_upper_p2p` /
:func:`simulate_upper_barrier` replay the schedule on a
:class:`~repro.machine.SimMachine` to produce the time the paper would
have measured.

:func:`simulate_sweep` is the DES sweep every p2p and barrier sync
model runs on, the ``upper_p2p_sim`` or the ``superstep_sim`` kernel; a
model supplies only its row order, row→thread map and barrier steps.
"""

from __future__ import annotations

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace, Interval
from ..sparse.csr import CSRMatrix
from ..kernels.des import superstep_sim, upper_p2p_sim
from ..sched.superstep import SuperstepPlan

__all__ = [
    "assign_round_robin",
    "assign_dynamic",
    "simulate_upper_p2p",
    "simulate_upper_barrier",
    "simulate_sweep",
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
    fault_plan, fault_report:
        Optional :class:`repro.resilience.FaultPlan` injecting spin
        faults and dropped notifications into the DES (stragglers are
        carried by the machine itself), and a
        :class:`repro.resilience.FaultRunReport` filled with what
        happened.

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
    return upper_p2p_sim(
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
    makespan, finish, trace = simulate_sweep(
        S, machine, np.arange(m), assign_round_robin(level_ptr, machine.n_threads),
        flops, touched, steps=level_ptr, start_time=start_time, trace=trace,
    )
    return makespan, finish[:m], trace


def simulate_sweep(
    S: CSRMatrix, machine: SimMachine, order, thread_of, flops, touched, *,
    steps=None, part="lower", start_time=0.0, trace: ExecutionTrace | None = None,
):
    """One DES sweep of the rows ``order`` on a DES kernel.

    A sync model is only data: a row order (original ids), a row→thread
    map (``thread_of[i]`` runs the ``i``-th row) and, for barriers, step
    bounds (step ``s`` runs ``order[steps[s]:steps[s+1]]``).  A row
    depends on its strict-``part`` entries of ``S``.  With
    ``steps=None`` the sweep is point-to-point: the ``upper_p2p_sim``
    kernel over the dependency pattern permuted into execution order.
    Otherwise it is the ``superstep_sim`` kernel over a plan with one
    step per bound, emitting no ``sched.superstep`` spans.

    Raises ``ValueError`` naming the row and the dependency when a row
    runs before one of its dependencies (or, with ``steps``, in the
    same step).  Returns ``(makespan, finish, trace)``: ``finish`` has
    length ``S.n_rows`` (zero for rows not swept), and ``finish`` and
    the trace's ``("row", r)`` labels use the original row ids; a
    barrier sweep records its trace step by step in ``order``.
    """
    order = np.asarray(order, dtype=np.int64)
    thread_of = np.asarray(thread_of, dtype=np.int64)
    k, p = order.size, machine.n_threads
    # dependency edges in execution positions: row ``i`` waits for row
    # ``j``; a dependency outside ``order`` sorts after every swept row
    pos = np.full(S.n_rows, k, dtype=np.int64)
    pos[order] = np.arange(k)
    lens = np.diff(S.indptr)[order]
    i = np.repeat(np.arange(k), lens)
    dep = S.indices[np.repeat(S.indptr[order] - np.cumsum(lens) + lens, lens) + np.arange(i.size)]
    keep = dep < order[i] if part == "lower" else dep > order[i]
    i, dep = i[keep], dep[keep]
    j = pos[dep]
    if steps is None:
        late = j >= i
    else:
        steps = np.asarray(steps, dtype=np.int64)
        n_steps = steps.size - 1
        step_of = np.repeat(np.arange(n_steps), np.diff(steps))
        late = np.append(step_of, n_steps)[j] >= step_of[i]
    if late.any():
        b = int(np.argmax(late))
        where = "before" if steps is None else "in the step of or before"
        raise ValueError(f"row {order[i[b]]} is scheduled {where} its dependency {dep[b]}")
    if trace is None:
        trace = ExecutionTrace(p)
    n0 = len(trace.intervals)
    fl, tl = np.asarray(flops)[order], np.asarray(touched)[order]
    if steps is None:
        ptr = np.zeros(k + 1, dtype=np.int64)
        np.cumsum(np.bincount(i, minlength=k), out=ptr[1:])
        P = CSRMatrix(k, k, ptr, j[np.lexsort((j, i))], sort=False, check=False)
        makespan, finish, trace = upper_p2p_sim(
            P, machine, thread_of, fl, tl, m=k, start_time=start_time, trace=trace
        )
    else:
        key = step_of * p + thread_of
        thread_ptr = np.zeros(n_steps * p + 1, dtype=np.int64)
        np.cumsum(np.bincount(key, minlength=n_steps * p), out=thread_ptr[1:])
        plan = SuperstepPlan(
            part=part, n=k, n_threads=p, rows=np.argsort(key, kind="stable"),
            step_ptr=steps, thread_ptr=thread_ptr, thread_of=thread_of,
            step_of=step_of, level_of=step_of, step_level_ptr=np.arange(n_steps + 1),
        )
        makespan, finish, trace = superstep_sim(
            S, machine, plan, fl, tl, start_time=start_time, trace=trace, spans=False
        )
    new = trace.intervals[n0:]
    if steps is not None:  # the kernel records thread by thread within a step
        new.sort(key=lambda iv: iv.label[1])
    rows = order.tolist()
    trace.intervals[n0:] = [
        Interval(iv.thread, iv.start, iv.stop, ("row", rows[iv.label[1]])) for iv in new
    ]
    out = np.zeros(S.n_rows)
    out[order] = finish
    return makespan, out, trace
