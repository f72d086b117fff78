"""Threaded executors for the p2p- and superstep-scheduled kernels.

``threaded_factor`` runs the two-stage factorization with real
``threading.Thread`` workers: the upper rows dealt round-robin in level
order, each worker factoring its rows in sequence and spin-waiting on
the :class:`~repro.runtime.pointtopoint.ProgressBoard` for cross-thread
dependencies, then the Even-Rows lower stage (§III-B, Fig. 8): once
every upper row is published each worker factors its block of lower
rows, a barrier, and thread 0 factors the corner.
``threaded_trisolve_lower`` runs the p2p stage alone for the forward
solve; ``threaded_trisolve_superstep`` runs the same row sweep under a
superstep plan.  All must produce results bit-identical to their
sequential counterparts — that determinism is the point.

Resilience (``docs/resilience.md``): both p2p executors accept a
:class:`repro.resilience.FaultPlan` (straggler sleeps, dropped publish
notifications) and run a *watchdog* around every dependency wait, the
stage wait included.  A wait that exceeds ``watchdog_timeout``
wall-clock seconds — a lost notification, a dead producer — sets a
shared stop event and aborts the barrier; every worker drains out, and
the rows left incomplete are finished on the caller's thread in
ascending order, which is exactly the barrier (CSR-LS) schedule.  The
fallback is numerically safe because every dependency of row ``r`` is a
row ``< r``, and flags written after each piece of work (a row, or a
lower row's FACTOR_L and corner phases) guarantee no finished piece is
ever run again — ``factor_row`` divides in place and is not idempotent.
Faults therefore cost time, never correctness: results under any plan
are bit-identical to the fault-free run.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.iluk import factor_row, _scatter_values
from ..core.lower_er import EvenRows
from ..core.upper import assign_round_robin
from ..kernels import cached_analysis
from ..kernels.plans import build_producer_csr
from ..kernels.trisolve import sweep_row
from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from .pointtopoint import FaultInjectedBoard, ProgressBoard
from .team import p2p_rows, p2p_wait, run_team

__all__ = ["threaded_factor", "threaded_trisolve_lower", "threaded_trisolve_superstep"]


def _p2p_watchdog(M, level_ptr, n_threads, row_op, span, fault_plan, fault_report, timeout):
    """Run the two-stage order over ``M``'s rows with the watchdog.

    Rows ``< m = level_ptr[-1]`` run ``row_op(r, None)`` p2p.  Rows
    ``m..n-1`` run Even-Rows: ``row_op(r, (0, m))`` over each worker's
    block once every upper row is published, a barrier, then
    ``row_op(r, (m, r))`` for the corner on thread 0.
    """
    n = M.n_rows
    m = int(level_ptr[-1])
    if m > n:
        raise ValueError(f"level_ptr covers {m} rows of a {n}-row matrix")
    thread_of = assign_round_robin(level_ptr, n_threads)
    if fault_plan is not None and fault_plan.dropped:
        board = FaultInjectedBoard(n_threads, fault_plan, report=fault_report)
    else:
        board = ProgressBoard(n_threads)
    waits = build_producer_csr(M, m, thread_of)
    # done[r]: row r is final; factored_l[r]: lower row r's FACTOR_L is
    # done.  Each is set after its work, so the fallback resumes a lower
    # row from the phase a worker left it in.
    done = np.zeros(n, dtype=bool)
    factored_l = np.zeros(n, dtype=bool)
    last = [(u, int(rows[-1])) for u in range(n_threads)
            if (rows := np.nonzero(thread_of == u)[0]).size]
    blocks = [(lo, hi) for _, lo, hi in EvenRows(m=m, n=n, n_threads=n_threads).blocks()]
    barrier = threading.Barrier(n_threads)
    stop = threading.Event()
    stalled: list[tuple[int, int, int]] = []

    def upper(t):
        sleep = 0.0
        if fault_plan is not None and fault_plan.real_sleep_per_row > 0.0:
            sleep = fault_plan.real_sleep_per_row * (fault_plan.rate(t) - 1.0)
        stall = p2p_rows(
            t, thread_of, waits, board, lambda r: row_op(r, None), span,
            done=done, stop=stop, timeout=timeout, sleep=sleep,
        )
        if stall is None and m < n:
            # every thread's last upper row, published: the stage is done
            for u, need in last:
                if u != t and not p2p_wait(
                    board, u, need, "wait.stage", timeout=timeout, stop=stop
                ):
                    return blocks[t][0], u, need
        return stall

    def work(t):
        with _spans.span("upper_stage", cat="runtime", thread=t):
            stall = upper(t)
        if stall is not None:
            r, u, need = stall
            if not stop.is_set():
                stalled.append((t, u, need))
                stop.set()
                _spans.instant("watchdog", cat="runtime", row=r, producer=u, need=need)
            barrier.abort()  # this worker returns: peers past the stage wait must not block
            return
        if m == n:
            return
        lo, hi = blocks[t]
        with _spans.span("lower_block", cat="runtime", lo=lo, hi=hi):
            for r in range(lo, hi):
                row_op(r, (0, m))
                factored_l[r] = True
        with _spans.span("wait.barrier", cat="runtime"):
            barrier.wait()
        if t == 0:
            with _spans.span("corner", cat="runtime", m=m, n=n):
                for r in range(m, n):
                    row_op(r, (m, r))
                    done[r] = True

    run_team(n_threads, work, stop=stop, barrier=barrier)
    if stop.is_set():
        # watchdog fallback: barrier-schedule the remaining rows.  All
        # workers have joined, deps of row r are rows < r, and the flags
        # keep non-idempotent factor_row off finished work.
        todo = np.nonzero(~done)[0]
        with _spans.span("watchdog_fallback", cat="runtime"):
            for r in todo:
                r = int(r)
                row_op(r, (m, r) if factored_l[r] else None)
        if fault_report is not None:
            fault_report.watchdog_engaged = True
            fault_report.n_fallback_rows = len(todo)
            fault_report.stalls.extend(stalled)


def threaded_factor(
    A: CSRMatrix,
    S: CSRMatrix,
    level_ptr,
    n_threads,
    *,
    pivot_tol=0.0,
    fault_plan=None,
    fault_report=None,
    watchdog_timeout=5.0,
):
    """Two-stage factorization of A on pattern S with real threads.

    ``A`` and ``S`` must already be in the schedule's order.  The first
    ``m = level_ptr[-1]`` rows are the upper stage (p2p
    synchronization); rows ``m..n-1`` are the Even-Rows lower stage
    (per-thread blocks, a barrier, a serial corner).  ``m = n`` is the
    LS-only configuration.  Returns the combined L\\U factor,
    bit-identical to the sequential reference.

    ``fault_plan`` injects faults (see :mod:`repro.resilience.faults`);
    ``watchdog_timeout`` bounds every dependency wait in wall-clock
    seconds — on expiry the run falls back to the sequential barrier
    schedule for the remaining rows (recorded in ``fault_report``).
    The returned factor is bit-identical either way.  Fail-fast: a
    failing worker stops its peers at once and its exception reaches
    the caller.
    """
    F = _scatter_values(S, A)
    diag_pos = cached_analysis(F).diag_pos()
    _p2p_watchdog(
        S, level_ptr, n_threads,
        lambda r, window: factor_row(F, r, diag_pos, pivot_tol=pivot_tol, window=window),
        "factor_row", fault_plan, fault_report, watchdog_timeout,
    )
    return F


def threaded_trisolve_lower(
    F: CSRMatrix,
    b,
    level_ptr,
    n_threads,
    *,
    fault_plan=None,
    fault_report=None,
    watchdog_timeout=5.0,
):
    """Forward solve ``L y = b`` with real threads + p2p sync.

    Same watchdog/fallback contract as :func:`threaded_factor`.
    """
    if int(level_ptr[-1]) != F.n_rows:
        raise ValueError("level_ptr must cover every row")
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(F.n_rows)
    _p2p_watchdog(
        F, level_ptr, n_threads, lambda r, _window: sweep_row(F, b, y, r, False),
        "solve_row", fault_plan, fault_report, watchdog_timeout,
    )
    return y


def threaded_trisolve_superstep(F, rhs, plan):
    """Solve one triangular part of ``F`` under a superstep plan.

    ``plan.part`` selects the sweep: ``"lower"`` solves ``L y = rhs``
    (unit diagonal), ``"upper"`` solves ``U x = rhs``.  Spawns
    ``plan.n_threads`` workers, the count the plan was partitioned for.
    The whole synchronization budget is one barrier per superstep
    boundary: inside a step every cross-thread dependency points at an
    *earlier* step (the invariant
    :func:`~repro.sched.superstep.validate_superstep_plan` checks) and
    each worker runs its rows in plan order — no board, no spin waits,
    no watchdog.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    out = np.zeros(plan.n)
    upper = plan.part == "upper"
    barrier = threading.Barrier(plan.n_threads)

    def work(t):
        for s in range(plan.n_steps):
            with _spans.span(
                "sched.superstep", cat="sched", step=s, thread=t, part=plan.part
            ):
                for r in plan.thread_rows(s, t):
                    sweep_row(F, rhs, out, int(r), upper)
            barrier.wait()

    run_team(plan.n_threads, work, barrier=barrier)
    return out
