"""Threaded executors for the p2p- and superstep-scheduled kernels.

``threaded_factor`` runs the upper-stage algorithm with real
``threading.Thread`` workers: rows dealt round-robin in level order,
each worker factoring its rows in sequence and spin-waiting on the
:class:`~repro.runtime.pointtopoint.ProgressBoard` for cross-thread
dependencies.  ``threaded_trisolve_lower`` does the same for the
forward solve; ``threaded_trisolve_superstep`` runs the same row sweep
under a superstep plan.  All must produce results bit-identical to
their sequential counterparts — that determinism is the point.

Resilience (``docs/resilience.md``): both p2p executors accept a
:class:`repro.resilience.FaultPlan` (straggler sleeps, dropped publish
notifications) and run a *watchdog* around every dependency wait.  A
wait that exceeds ``watchdog_timeout`` wall-clock seconds — a lost
notification, a dead producer — sets a shared stop event; every worker
drains out, and the rows left incomplete are finished sequentially in
ascending order, which is exactly the barrier (CSR-LS) schedule.  The
fallback is numerically safe because every dependency of row ``r`` is a
row ``< r``, and a ``done[]`` flag array (written by workers *before*
publishing) guarantees no completed row is ever re-factored —
``factor_row`` divides in place and is not idempotent.  Faults
therefore cost time, never correctness: results under any plan are
bit-identical to the fault-free run.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.iluk import factor_row, _scatter_values
from ..core.upper import assign_round_robin
from ..kernels import cached_analysis
from ..kernels.plans import build_producer_csr
from ..kernels.trisolve import sweep_row
from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from .pointtopoint import FaultInjectedBoard, ProgressBoard
from .team import p2p_rows, run_team

__all__ = ["threaded_factor", "threaded_trisolve_lower", "threaded_trisolve_superstep"]


def _p2p_watchdog(M, level_ptr, n_threads, row_op, span, fault_plan, fault_report, timeout):
    """Run ``row_op`` over every row of ``M``'s pattern, p2p, with the watchdog."""
    n = M.n_rows
    if int(level_ptr[-1]) != n:
        raise ValueError("level_ptr must cover every row")
    thread_of = assign_round_robin(level_ptr, n_threads)
    if fault_plan is not None and fault_plan.dropped:
        board = FaultInjectedBoard(n_threads, fault_plan, report=fault_report)
    else:
        board = ProgressBoard(n_threads)
    waits = build_producer_csr(M, n, thread_of)
    done = np.zeros(n, dtype=bool)
    stop = threading.Event()
    stalled: list[tuple[int, int, int]] = []

    def work(t):
        sleep = 0.0
        if fault_plan is not None and fault_plan.real_sleep_per_row > 0.0:
            sleep = fault_plan.real_sleep_per_row * (fault_plan.rate(t) - 1.0)
        stall = p2p_rows(
            t, thread_of, waits, board, row_op, span,
            done=done, stop=stop, timeout=timeout, sleep=sleep,
        )
        if stall is not None and not stop.is_set():
            r, u, need = stall
            stalled.append((t, u, need))
            stop.set()
            _spans.instant("watchdog", cat="runtime", row=r, producer=u, need=need)

    run_team(n_threads, work, stop=stop)
    if stop.is_set():
        # watchdog fallback: barrier-schedule the remaining rows.  All
        # workers have joined, deps of row r are rows < r, and done[]
        # keeps non-idempotent factor_row off completed rows.
        todo = np.nonzero(~done)[0]
        with _spans.span("watchdog_fallback", cat="runtime"):
            for r in todo:
                row_op(int(r))
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
    """Factor A on pattern S with real threads + p2p synchronization.

    ``A`` and ``S`` must already be in level order and ``level_ptr``
    must cover all rows (the LS-only configuration).  Returns the
    combined L\\U factor.

    ``fault_plan`` injects faults (see :mod:`repro.resilience.faults`);
    ``watchdog_timeout`` bounds every dependency wait in wall-clock
    seconds — on expiry the run falls back to the sequential barrier
    schedule for the remaining rows (recorded in ``fault_report``).
    The returned factor is bit-identical either way.
    """
    F = _scatter_values(S, A)
    diag_pos = cached_analysis(F).diag_pos()
    _p2p_watchdog(
        S, level_ptr, n_threads,
        lambda r: factor_row(F, r, diag_pos, pivot_tol=pivot_tol), "factor_row",
        fault_plan, fault_report, watchdog_timeout,
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
    b = np.asarray(b, dtype=np.float64)
    y = np.zeros(F.n_rows)
    _p2p_watchdog(
        F, level_ptr, n_threads, lambda r: sweep_row(F, b, y, r, False), "solve_row",
        fault_plan, fault_report, watchdog_timeout,
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
