"""Threaded Even-Rows lower stage with real OS threads.

Completes the real-thread story: :mod:`threadpool` runs the upper stage
with p2p progress counters; this module runs the ER lower stage the way
Fig. 8 describes — each thread independently eliminates its block's
upper-stage columns (FACTOR_L), a barrier, then the corner factorization
(serial, "good enough for most matrices").  Together they execute the
full two-stage algorithm concurrently and must reproduce the sequential
factor bit-for-bit.  It is the one real-thread ER executor; both phases
call :func:`~repro.core.iluk.factor_row` with a column window.
"""

from __future__ import annotations

import threading

import numpy as np

from ..core.iluk import _scatter_values, factor_row
from ..core.lower_er import EvenRows
from ..core.upper import assign_round_robin
from ..kernels import cached_analysis
from ..kernels.plans import build_producer_csr
from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from .pointtopoint import ProgressBoard
from .team import p2p_rows, p2p_wait, run_team

__all__ = ["threaded_factor_two_stage"]

#: wall-clock seconds a dependency wait may spin before it is a stall
WAIT_TIMEOUT = 30.0


def threaded_factor_two_stage(
    A: CSRMatrix,
    S: CSRMatrix,
    level_ptr,
    m,
    n_threads,
    *,
    pivot_tol=0.0,
):
    """Full two-stage factorization with real threads.

    ``level_ptr`` covers the upper rows ``0..m-1``; rows ``m..n-1`` are
    the lower stage, factored with Even-Rows.  Upper stage: p2p spin
    synchronization.  Lower stage: per-thread blocks + barrier + serial
    corner.  Returns the combined factor, bit-identical to the
    sequential reference.  Fail-fast: a failing worker stops its peers
    at once and its exception reaches the caller; a dependency unmet
    for :data:`WAIT_TIMEOUT` seconds raises ``TimeoutError``.
    """
    if int(level_ptr[-1]) != m:
        raise ValueError("level_ptr must cover exactly the upper rows")
    F = _scatter_values(S, A)
    diag_pos = cached_analysis(F).diag_pos()
    n = F.n_rows
    thread_of = assign_round_robin(level_ptr, n_threads)
    board = ProgressBoard(n_threads)
    waits = build_producer_csr(S, m, thread_of)
    done = np.zeros(m, dtype=bool)
    blocks = {t: (lo, hi) for t, lo, hi in EvenRows(m=m, n=n, n_threads=n_threads).blocks()}
    barrier = threading.Barrier(n_threads)
    stop = threading.Event()

    def timed_out(u, need):
        # follow the wait-for chain to the stalled root: a producer whose
        # awaited row is done but unpublished lost its publish; otherwise
        # the chain ends at a thread that is not waiting (or closes a cycle)
        seen: set[int] = set()
        while u not in seen and not (done[need] and board.load(u) < need):
            seen.add(u)
            nxt = board.waiting[u]
            if nxt is None:
                break
            u, need = nxt
        return TimeoutError(
            f"waited {WAIT_TIMEOUT}s for thread {u} to reach row {need} "
            f"(at {board.load(u)})"
        )

    def work(t):
        # ---- upper stage: p2p level-scheduled rows
        with _spans.span("upper_stage", cat="runtime", thread=t):
            stall = p2p_rows(
                t, thread_of, waits, board,
                lambda r: factor_row(F, r, diag_pos, pivot_tol=pivot_tol), "factor_row",
                done=done, stop=stop, timeout=WAIT_TIMEOUT,
            )
            if stall is not None:
                raise timed_out(*stall[1:])
            # ---- wait until every upper row is published
            for u in range(n_threads):
                rows_u = np.nonzero(thread_of == u)[0]
                if rows_u.size:
                    need = int(rows_u[-1])
                    if not p2p_wait(
                        board, u, need, "wait.stage",
                        timeout=WAIT_TIMEOUT, stop=stop, waiter=t,
                    ):
                        raise timed_out(u, need)
        # ---- lower stage phase 1: my block's FACTOR_L
        lo, hi = blocks[t]
        with _spans.span("lower_block", cat="runtime", lo=lo, hi=hi):
            for r in range(lo, hi):
                factor_row(F, r, diag_pos, pivot_tol=pivot_tol, window=(0, m))
        with _spans.span("wait.barrier", cat="runtime"):
            barrier.wait()
        # ---- corner: serial on thread 0
        if t == 0:
            with _spans.span("corner", cat="runtime", m=m, n=n):
                for r in range(m, n):
                    factor_row(F, r, diag_pos, pivot_tol=pivot_tol, window=(m, r))

    run_team(n_threads, work, stop=stop, barrier=barrier)
    return F
