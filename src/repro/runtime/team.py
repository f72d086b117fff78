"""The one real-thread core every executor runs on.

:func:`run_team` spawns a team of OS threads, joins it and raises the
first real worker error; any error sets the team's ``stop`` event and
aborts its barrier, so peers leave at their next wait instead of
spinning out a timeout.  :func:`p2p_rows` is a worker's share of a
p2p-scheduled sweep: each row waits only on the latest dependency row
of each producer thread (the pruned §III-A rule, read from
:func:`~repro.kernels.plans.build_producer_csr` — the table the DES and
the pruning/race proofs certify), runs, and publishes its progress.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from ..obs import spans as _spans

__all__ = ["run_team", "p2p_wait", "p2p_rows"]


class _StandDown(Exception):
    """A peer failed: leave quietly, the peer's error is the result."""


def run_team(n_threads, work, *, stop=None, barrier=None):
    """Run ``work(t)`` on ``n_threads`` threads; raise the first real error.

    :class:`_StandDown` and ``BrokenBarrierError`` are a peer's failure
    seen second-hand, never the result.
    """
    errors: list[BaseException] = []

    def worker(t):
        try:
            work(t)
        except BaseException as e:
            if not isinstance(e, (_StandDown, threading.BrokenBarrierError)):
                errors.append(e)  # before stop: the first failure is the result
            if stop is not None:
                stop.set()
            if barrier is not None:
                barrier.abort()

    threads = [threading.Thread(target=worker, args=(t,)) for t in range(n_threads)]
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    if errors:
        raise errors[0]


def p2p_wait(board, u, need, name, *, timeout, stop, waiter, **tags):
    """Wait under a ``name`` span for thread ``u`` to publish row ``need``.

    True when met, False on timeout; raises :class:`_StandDown` once
    ``stop`` is set.  ``waiter`` (the calling thread) is recorded on the
    board while blocked.  The span brackets the spin only, so tracing
    never changes a wait's outcome (or the factor bits).
    """
    with _spans.span(name, cat="runtime", producer=u, need=need, **tags):
        ok = board.try_wait(u, need, timeout=timeout, stop=stop, waiter=waiter)
    if not ok and stop.is_set():
        raise _StandDown
    return ok


def p2p_rows(t, thread_of, waits, board, do_row, span, *, done, stop, timeout, sleep=0.0):
    """Thread ``t``'s rows, in order, under the pruned wait table ``waits``.

    Returns None when every row is done, or the ``(row, producer,
    need)`` of a wait that timed out — the caller picks the response.
    ``sleep`` is a straggler's per-row delay.
    """
    ptr, prod_u, prod_latest = waits
    for r in np.nonzero(thread_of == t)[0]:
        r = int(r)
        if stop.is_set():
            raise _StandDown
        for j in range(int(ptr[r]), int(ptr[r + 1])):
            u, need = int(prod_u[j]), int(prod_latest[j])
            if not p2p_wait(
                board, u, need, "wait", timeout=timeout, stop=stop, waiter=t, row=r
            ):
                return r, u, need
        if sleep:
            time.sleep(sleep)
        with _spans.span(span, cat="runtime", row=r):
            do_row(r)
        done[r] = True  # before publish: truth even if the publish drops
        board.publish(t, r)
    return None
