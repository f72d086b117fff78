"""Per-thread progress counters — the point-to-point sync primitive.

The paper's upper stage replaces barriers with "inexpensive spinlocks":
each thread publishes the highest (level-ordered) row it has completed;
a consumer spins until the producing thread's counter passes the row it
needs.  The implied ordering of rows within a thread makes one counter
per thread sufficient — the sparsified synchronization of Park et al.

CPython notes: plain list stores of Python ints are atomic under the
GIL, so the board needs no locks; ``time.sleep(0)`` in the spin loop
yields the GIL so producers can run.
"""

from __future__ import annotations

import time

__all__ = ["ProgressBoard", "FaultInjectedBoard"]


class ProgressBoard:
    """Monotonic per-thread progress counters with spin-waiting.

    ``waiting[t]`` is the ``(producer, row)`` thread ``t`` is blocked
    on, or None: the wait-for graph a timeout follows to name the stalled
    root.  An entry stays set after its wait times out.
    """

    def __init__(self, n_threads):
        self.n_threads = int(n_threads)
        self._progress = [-1] * self.n_threads
        self.waiting: list[tuple[int, int] | None] = [None] * self.n_threads

    def publish(self, thread, row):
        """Thread ``thread`` announces it has completed ``row``.

        Rows must be published in increasing order per thread (the
        implied ordering) — enforced because consumers rely on it.
        """
        if row <= self._progress[thread]:
            raise ValueError(
                f"thread {thread} published row {row} after {self._progress[thread]}"
            )
        self._progress[thread] = row

    def load(self, thread):
        return self._progress[thread]

    def try_wait(self, producer_thread, row, *, timeout=30.0, stop=None, waiter=None):
        """Bounded spin: True when satisfied, False on timeout or ``stop``.

        The board's one wait primitive, called only from
        :func:`repro.runtime.team.p2p_wait`.  A stalled dependency (lost
        notification, dead producer) returns False instead of raising,
        so the executor picks the response: the barrier-schedule
        fallback (``threaded_factor``, ``threaded_trisolve_lower``) or a
        ``TimeoutError`` (``threaded_factor_two_stage``).  ``stop`` is a
        ``threading.Event`` that aborts the spin early once some other
        worker has already given up (lint rule JAV009 demands it).
        ``waiter`` is the calling thread, recorded in :attr:`waiting`
        until the wait is met.
        """
        if waiter is not None:
            self.waiting[waiter] = (producer_thread, row)
        deadline = time.monotonic() + timeout
        while self._progress[producer_thread] < row:
            if stop is not None and stop.is_set():
                return False
            if time.monotonic() > deadline:
                return False
            time.sleep(0)  # yield the GIL
        if waiter is not None:
            self.waiting[waiter] = None
        return True

    def snapshot(self):
        return list(self._progress)


class FaultInjectedBoard(ProgressBoard):
    """A ProgressBoard that loses publishes per a FaultPlan.

    A dropped publish models a lost notification: the producer's memory
    writes have happened (the factor row is computed) but its counter
    never advances past the dropped row.  Because counters are
    monotonic, the thread's *next* surviving publish covers the loss;
    dropping a thread's last publish stalls every waiter until the
    watchdog fires.
    """

    def __init__(self, n_threads, fault_plan, report=None):
        super().__init__(n_threads)
        self.fault_plan = fault_plan
        self.report = report

    def publish(self, thread, row):
        if self.fault_plan.is_dropped(thread, row):
            if self.report is not None:
                self.report.dropped_events += 1
            return
        super().publish(thread, row)
