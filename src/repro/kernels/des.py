"""DES kernels: the batched sweeps and their scalar references.

:func:`upper_p2p_sim` and its reference :func:`upper_p2p_sim_scalar`
simulate the point-to-point level-scheduled upper stage: rows run in
permuted order on their assigned threads; before starting, a row waits
for each *other* thread owning one of its strict-lower dependencies,
bounded by that thread's latest dependency row (the implied-ordering
pruning of §III-A).

The scalar reference resolves dependencies inside the row loop with
``np.unique`` + boolean masks and calls ``machine.work_time`` per row.
The production sweep hoists all of that out of the loop:

* a one-shot producer-CSR (:func:`~repro.kernels.plans.build_producer_csr`)
  precomputes, per row, the distinct producer threads and their latest
  dependency;
* ``machine.work_time_batch`` evaluates every row's roofline time in one
  vectorized call;
* the spin latencies collapse to a ``p × p`` lookup table.

The remaining sequential loop (inherent: each finish time feeds later
rows) touches only Python floats, and both produce the same makespan,
finish times and trace to the last bit.  :func:`superstep_sim` and
:func:`superstep_sim_scalar` are the same pair for the barrier sweep of
a :class:`~repro.sched.superstep.SuperstepPlan`.

Fault injection (``fault_plan``, a :class:`repro.resilience.FaultPlan`)
layers three deterministic perturbations on top — see
``docs/resilience.md``:

* straggler slowdowns live in the *machine* (its per-thread rates are
  derated at construction), so they need no code here;
* a row in ``spin_faults`` with at least one cross-thread dependency
  wait pays ``spin_fault_penalty`` (a spin-lock timeout + retry);
* a dropped publish ``(u, row)`` makes consumers observe ``u``'s next
  surviving publish instead — or, when no earlier-than-the-consumer
  cover exists, spin until the watchdog fires
  (``finish[row] + sync + watchdog_timeout``) and read the value
  directly (memory was written; only the notification was lost).

All three shift *time* only; the simulated results and the
scalar/batched bit-parity are unaffected.
"""

from __future__ import annotations

from contextlib import nullcontext

import numpy as np

from ..machine.trace import ExecutionTrace
from ..obs import spans as _spans
from .hook import kernel

__all__ = ["upper_p2p_sim", "upper_p2p_sim_scalar", "superstep_sim", "superstep_sim_scalar"]


def _dropped_covers(thread_of, m, plan):
    """Map each dropped publish ``(u, row)`` to its covering row.

    Progress counters are monotonic, so the next *surviving* publish of
    the same thread covers a lost one.  Returns ``{(u, row): cover}``
    with ``cover = -1`` when no later publish of ``u`` exists below
    ``m`` (consumers then rely on the watchdog).
    """
    covers = {}
    thread_of = np.asarray(thread_of)
    for u, row in plan.dropped:
        cover = -1
        for n in range(row + 1, m):
            if int(thread_of[n]) == u and not plan.is_dropped(u, n):
                cover = n
                break
        covers[(u, row)] = cover
    return covers


def upper_p2p_sim_scalar(
    S,
    machine,
    thread_of,
    flops,
    touched,
    *,
    m,
    per_row_overhead=0.0,
    start_time=0.0,
    trace=None,
    fault_plan=None,
    fault_report=None,
):
    """Reference DES loop: per-row dependency resolution and costing."""
    p = machine.n_threads
    thread_time = np.full(p, float(start_time))
    finish = np.zeros(m)
    if trace is None:
        trace = ExecutionTrace(p)
    covers = _dropped_covers(thread_of, m, fault_plan) if fault_plan is not None else {}
    indptr, indices = S.indptr, S.indices
    for r in range(m):
        t = int(thread_of[r])
        start = thread_time[t] + per_row_overhead
        waited = False
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < min(r, m)]
        if deps.size:
            # sparsified sync: one wait per distinct producer thread,
            # bounded by that thread's *latest* dependency row
            producer = thread_of[deps]
            for u in np.unique(producer):
                if u == t:
                    continue  # program order covers same-thread deps
                u = int(u)
                latest = int(deps[producer == u].max())
                lat = machine.sync_latency(t, u)
                if fault_plan is not None and fault_plan.is_dropped(u, latest):
                    cover = covers[(u, latest)]
                    if 0 <= cover < r:
                        cand = finish[cover] + lat
                    else:
                        cand = finish[latest] + lat + fault_plan.watchdog_timeout
                        if fault_report is not None:
                            fault_report.watchdog_engaged = True
                            fault_report.stalls.append((t, u, latest))
                    if fault_report is not None:
                        fault_report.dropped_events += 1
                else:
                    cand = finish[latest] + lat
                waited = True
                start = max(start, cand)
        if fault_plan is not None and waited and r in fault_plan.spin_faults:
            start += fault_plan.spin_fault_penalty
        stop = start + machine.work_time(flops[r], touched[r], thread=t)
        finish[r] = stop
        thread_time[t] = stop
        trace.record(t, start, stop, label=("row", r))
    makespan = float(thread_time.max()) if m else float(start_time)
    return makespan, finish, trace


@kernel
def upper_p2p_sim(
    S,
    machine,
    thread_of,
    flops,
    touched,
    *,
    m,
    per_row_overhead=0.0,
    start_time=0.0,
    trace=None,
    fault_plan=None,
    fault_report=None,
):
    """Batched DES: precomputed producer-CSR + vectorized row costs."""
    from .plans import build_producer_csr

    p = machine.n_threads
    if trace is None:
        trace = ExecutionTrace(p)
    if m == 0:
        return float(start_time), np.zeros(0), trace
    prod_ptr, prod_u, prod_latest = build_producer_csr(S, m, thread_of)
    work = machine.work_time_batch(
        np.asarray(flops[:m], dtype=np.float64),
        np.asarray(touched[:m], dtype=np.float64),
        thread=thread_of[:m],
    )
    sync = machine.sync_latency_matrix()
    covers = _dropped_covers(thread_of, m, fault_plan) if fault_plan is not None else {}
    # plain-Python views: the sequential loop below runs ~10x faster on
    # lists of floats/ints than on NumPy scalars
    work_l = work.tolist()
    thread_l = np.asarray(thread_of[:m]).tolist()
    pp = prod_ptr.tolist()
    pu = prod_u.tolist()
    platest = prod_latest.tolist()
    sync_l = sync.tolist()
    ovh = float(per_row_overhead)
    thread_time = [float(start_time)] * p
    finish = [0.0] * m
    record = trace.record
    for r in range(m):
        t = thread_l[r]
        start = thread_time[t] + ovh
        row_sync = sync_l[t]
        for j in range(pp[r], pp[r + 1]):
            latest = platest[j]
            u = pu[j]
            if fault_plan is not None and fault_plan.is_dropped(u, latest):
                cover = covers[(u, latest)]
                if 0 <= cover < r:
                    cand = finish[cover] + row_sync[u]
                else:
                    cand = finish[latest] + row_sync[u] + fault_plan.watchdog_timeout
                    if fault_report is not None:
                        fault_report.watchdog_engaged = True
                        fault_report.stalls.append((t, u, latest))
                if fault_report is not None:
                    fault_report.dropped_events += 1
            else:
                cand = finish[latest] + row_sync[u]
            if cand > start:
                start = cand
        if fault_plan is not None and pp[r + 1] > pp[r] and r in fault_plan.spin_faults:
            start += fault_plan.spin_fault_penalty
        stop = start + work_l[r]
        finish[r] = stop
        thread_time[t] = stop
        record(t, start, stop, label=("row", r))
    return float(max(thread_time)), np.asarray(finish), trace


# ----------------------------------------------------------------------
# superstep DES kernels (repro.sched DAG-partition schedules)
# ----------------------------------------------------------------------
def _step_events(spans):
    """The per-step span/instant pair of the superstep DES; no-ops when off."""
    if spans:
        return _spans.span, _spans.instant
    return (lambda *a, **k: nullcontext()), (lambda *a, **k: None)


def _check_superstep_machine(machine, plan):
    if plan.n_threads > machine.n_threads:
        raise ValueError(
            f"plan was partitioned for {plan.n_threads} threads but the "
            f"machine has only {machine.n_threads}"
        )


def superstep_sim_scalar(
    S,
    machine,
    plan,
    flops,
    touched,
    *,
    start_time=0.0,
    trace=None,
    step_times=None,
    spans=True,
):
    """Reference superstep DES: per-row costing inside each superstep.

    Threads run their superstep rows back-to-back (no intra-step waits
    by construction of the plan); one barrier separates consecutive
    supersteps.  ``step_times`` (optional list) receives the clock at
    each superstep boundary — the observability export's instants.
    ``spans=False`` keeps the ``sched.superstep`` spans and boundary
    instants out of the obs trace (a barrier-per-level sweep is a plan
    with one level per step, not a superstep schedule).
    """
    _check_superstep_machine(machine, plan)
    span, instant = _step_events(spans)
    p = plan.n_threads
    if trace is None:
        trace = ExecutionTrace(machine.n_threads)
    clock = float(start_time)
    finish = np.zeros(plan.n)
    for s in range(plan.n_steps):
        with span("sched.superstep", cat="sched", step=s, part=plan.part):
            step_end = clock
            for t in range(p):
                tt = clock
                for r in plan.thread_rows(s, t):
                    r = int(r)
                    stop = tt + machine.work_time(flops[r], touched[r], thread=t)
                    trace.record(t, tt, stop, label=("row", r))
                    finish[r] = stop
                    tt = stop
                if tt > step_end:
                    step_end = tt
            clock = step_end
            if s < plan.n_steps - 1:
                clock += machine.barrier_cost()
        instant(
            "sched.superstep_boundary", cat="sched",
            step=s, part=plan.part, t=clock,
        )
        if step_times is not None:
            step_times.append(clock)
    return clock, finish, trace


@kernel
def superstep_sim(
    S,
    machine,
    plan,
    flops,
    touched,
    *,
    start_time=0.0,
    trace=None,
    step_times=None,
    spans=True,
):
    """Batched superstep DES: vectorized row costs, plain-Python loop."""
    _check_superstep_machine(machine, plan)
    span, instant = _step_events(spans)
    p = plan.n_threads
    if trace is None:
        trace = ExecutionTrace(machine.n_threads)
    n = plan.n
    if n == 0:
        return float(start_time), np.zeros(0), trace
    work = machine.work_time_batch(
        np.asarray(flops, dtype=np.float64),
        np.asarray(touched, dtype=np.float64),
        thread=plan.thread_of,
    )
    work_l = work.tolist()
    rows_l = plan.rows.tolist()
    tptr = plan.thread_ptr.tolist()
    barrier = machine.barrier_cost()
    clock = float(start_time)
    finish = [0.0] * n
    record = trace.record
    for s in range(plan.n_steps):
        with span("sched.superstep", cat="sched", step=s, part=plan.part):
            step_end = clock
            for t in range(p):
                tt = clock
                for j in range(tptr[s * p + t], tptr[s * p + t + 1]):
                    r = rows_l[j]
                    stop = tt + work_l[r]
                    record(t, tt, stop, label=("row", r))
                    finish[r] = stop
                    tt = stop
                if tt > step_end:
                    step_end = tt
            clock = step_end
            if s < plan.n_steps - 1:
                clock += barrier
        instant(
            "sched.superstep_boundary", cat="sched",
            step=s, part=plan.part, t=clock,
        )
        if step_times is not None:
            step_times.append(clock)
    return clock, np.asarray(finish), trace
