"""Happens-before race detector for p2p schedules and execution traces.

Javelin's upper stage synchronizes with one monotonic progress counter
per thread (§III-A): a consumer of row ``c`` spins until ``c``'s owner
has *published* a row ``>= c``, and the owner publishes its rows in
ascending order.  The claim that this is *sufficient* is a
happens-before argument, and this module checks it the way a dynamic
race detector (TSan) would: replay the schedule with one vector clock
per thread, join clocks along every ``publish → try_wait`` edge the
schedule actually performs, and report any read of row ``c`` during the
factorization of row ``r`` that is not ordered after ``c``'s completion.

Two entry points:

* :func:`replay_schedule` — verify a (pattern, row→thread map) pair
  directly, using the *implementation's own* pruned sync set
  (:func:`repro.kernels.plans.build_producer_csr`) unless an explicit
  one is supplied.  A :class:`repro.resilience.FaultPlan` layers dropped
  publishes on top: a dropped publish with a later surviving cover only
  delays the join; a dropped *last* publish removes it, and every read
  that relied on it is reported as a race (the watchdog read of the DES
  — memory was written, but nothing orders the read after the write).
* :func:`replay_trace` — reconstruct the schedule from a
  :class:`repro.machine.trace.ExecutionTrace` event log (per-thread
  execution order from interval starts) and verify it, plus a timing
  cross-check that no read starts before its dependency's interval ends.

Witnesses carry file-able detail (consumer row/thread, producing
row/thread, per-thread sequence numbers and the clock value observed),
formatted like a sanitizer report by :meth:`RaceReport.format`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "RaceWitness",
    "RaceReport",
    "thread_sequences",
    "sync_edges_from_producer_csr",
    "replay_schedule",
    "replay_superstep_schedule",
    "replay_trace",
]


@dataclass(frozen=True)
class RaceWitness:
    """One unordered (or otherwise illegal) memory access.

    ``kind`` is one of ``"missing-sync"`` (no publish/wait edge orders
    the read), ``"dropped-publish"`` (the ordering edge existed but its
    notification was dropped with no surviving cover), ``"program-order"``
    (same-thread rows executed out of ascending order — the monotonic
    counter contract is broken), ``"unsound-sync"`` (a sync edge names a
    row its producer thread does not own), and ``"timing"`` (a trace
    interval starts before a dependency's interval ends).
    """

    kind: str
    row: int
    dep: int
    thread: int
    dep_thread: int
    detail: str = ""

    def format(self) -> str:
        lines = [
            f"WARNING: repro.verify.races: data race ({self.kind})",
            f"  Read of row {self.dep} during factorization of row {self.row} "
            f"on thread {self.thread}",
            f"  Previous write: completion of row {self.dep} on thread {self.dep_thread}",
        ]
        if self.detail:
            lines.append(f"  {self.detail}")
        return "\n".join(lines)


@dataclass
class RaceReport:
    """Outcome of one happens-before replay."""

    n_rows: int
    n_threads: int
    n_sync_edges: int
    n_reads_checked: int = 0
    witnesses: list[RaceWitness] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def format(self, max_witnesses: int = 8) -> str:
        if self.ok:
            return (
                f"race-free: {self.n_reads_checked} reads over {self.n_rows} rows / "
                f"{self.n_threads} threads ordered by {self.n_sync_edges} sync edges"
            )
        head = [
            f"{len(self.witnesses)} race(s) over {self.n_rows} rows / "
            f"{self.n_threads} threads ({self.n_sync_edges} sync edges)"
        ]
        head += [w.format() for w in self.witnesses[:max_witnesses]]
        if len(self.witnesses) > max_witnesses:
            head.append(f"  ... and {len(self.witnesses) - max_witnesses} more")
        return "\n".join(head)


def thread_sequences(thread_of: np.ndarray, m: int | None = None):
    """Per-thread ascending row lists and each row's sequence number.

    Returns ``(rows_of, seq_of)`` where ``rows_of[t]`` is thread ``t``'s
    rows in program (ascending-id) order and ``seq_of[r]`` is row ``r``'s
    0-based position in its owner's list — the value its owner's
    progress counter notionally takes after publishing it.
    """
    thread_of = np.asarray(thread_of, dtype=np.int64)
    if m is None:
        m = int(thread_of.shape[0])
    p = int(thread_of[:m].max()) + 1 if m else 1
    rows_of = [np.nonzero(thread_of[:m] == t)[0] for t in range(p)]
    seq_of = np.empty(m, dtype=np.int64)
    for t in range(p):
        seq_of[rows_of[t]] = np.arange(rows_of[t].shape[0], dtype=np.int64)
    return rows_of, seq_of


def sync_edges_from_producer_csr(ptr, prod_u, prod_latest):
    """Per-row ``{producer_thread: latest_row}`` dicts from the CSR triple."""
    m = int(ptr.shape[0]) - 1
    out: list[dict[int, int]] = []
    for r in range(m):
        out.append(
            {
                int(prod_u[j]): int(prod_latest[j])
                for j in range(int(ptr[r]), int(ptr[r + 1]))
            }
        )
    return out


def _default_sync(S, m, thread_of):
    from ..kernels.plans import build_producer_csr

    return sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))


def _surviving_cover(rows_of_u, seq_dropped, fault_plan, u):
    """Sequence index of the next surviving publish of ``u``, or None."""
    for k in range(seq_dropped + 1, rows_of_u.shape[0]):
        if not fault_plan.is_dropped(u, int(rows_of_u[k])):
            return k
    return None


def replay_schedule(
    S,
    thread_of,
    *,
    m: int | None = None,
    sync=None,
    fault_plan=None,
) -> RaceReport:
    """Vector-clock replay of a p2p schedule; report unordered reads.

    Parameters
    ----------
    S:
        Pattern whose strict-lower entries are the true dependencies
        (the permuted factor pattern).
    thread_of:
        Row→thread map over rows ``0 .. m-1``; each thread executes its
        rows in ascending order (the implied ordering).
    sync:
        Per-row ``{producer_thread: latest_dep_row}`` wait sets.  When
        omitted, the implementation's pruned set is derived with
        :func:`repro.kernels.plans.build_producer_csr` — i.e. the replay
        verifies exactly what ``upper_p2p_sim`` and the threaded runtime
        execute.  Pass a tampered set to demonstrate detection.
    fault_plan:
        Optional :class:`repro.resilience.FaultPlan`; its ``dropped``
        publishes weaken the corresponding joins (see module docstring).
    """
    thread_of = np.asarray(thread_of, dtype=np.int64)
    if m is None:
        m = int(thread_of.shape[0])
    rows_of, seq_of = thread_sequences(thread_of, m)
    p = len(rows_of)
    if sync is None:
        sync = _default_sync(S, m, thread_of)
    n_sync = sum(len(s) for s in sync)
    report = RaceReport(n_rows=m, n_threads=p, n_sync_edges=n_sync)
    # clock[t][u]: how many of u's rows are ordered before t's next event
    clock = np.zeros((p, p), dtype=np.int64)
    # publish_clock[u][k]: u's clock right after completing its k-th row
    publish_clock: list[list[np.ndarray]] = [[] for _ in range(p)]
    indptr, indices = S.indptr, S.indices
    for r in range(m):
        t = int(thread_of[r])
        # --- joins: the waits this schedule actually performs ---------
        for u, need in sync[r].items():
            u = int(u)
            need = int(need)
            if u == t:
                continue  # program order; a self-wait would deadlock
            if need >= m or int(thread_of[need]) != u:
                report.witnesses.append(
                    RaceWitness(
                        kind="unsound-sync",
                        row=r,
                        dep=need,
                        thread=t,
                        dep_thread=u,
                        detail=f"sync edge waits on thread {u} for row {need}, "
                        f"which thread {u} does not own",
                    )
                )
                continue
            k = int(seq_of[need])
            if fault_plan is not None and fault_plan.is_dropped(u, need):
                k_cover = _surviving_cover(rows_of[u], k, fault_plan, u)
                if k_cover is None:
                    # dropped last publish: the waiter's watchdog fires and
                    # it reads without an ordering edge — no join happens
                    continue
                k = k_cover
            # the wait returns once u's counter passes `need`, i.e. after
            # u's k-th publish: join u's clock at that point
            clock[t] = np.maximum(clock[t], publish_clock[u][k])
        # --- read checks: every true dependency must be ordered -------
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r]
        for c in deps:
            c = int(c)
            u = int(thread_of[c])
            report.n_reads_checked += 1
            if u == t:
                if seq_of[c] >= seq_of[r]:
                    report.witnesses.append(
                        RaceWitness(
                            kind="program-order",
                            row=r,
                            dep=c,
                            thread=t,
                            dep_thread=u,
                            detail=f"same-thread rows out of order: seq({c})="
                            f"{int(seq_of[c])} >= seq({r})={int(seq_of[r])}",
                        )
                    )
                continue
            if clock[t][u] < seq_of[c] + 1:
                dropped = fault_plan is not None and fault_plan.is_dropped(u, c)
                # a dropped dependency that *was* covered would have joined;
                # reaching here with a dropped (u, row>=c) edge means the
                # watchdog read happened
                kind = "missing-sync"
                detail = (
                    f"consumer clock for thread {u} is {int(clock[t][u])}, "
                    f"needs >= {int(seq_of[c]) + 1} (seq of row {c})"
                )
                if fault_plan is not None:
                    need = sync[r].get(u)
                    if need is not None and fault_plan.is_dropped(u, int(need)):
                        kind = "dropped-publish"
                        detail += (
                            f"; publish ({u}, {int(need)}) dropped with no "
                            f"surviving cover"
                        )
                    elif dropped:
                        kind = "dropped-publish"
                report.witnesses.append(
                    RaceWitness(
                        kind=kind, row=r, dep=c, thread=t, dep_thread=u, detail=detail
                    )
                )
        # --- complete r: advance own component, snapshot the publish --
        clock[t][t] += 1
        publish_clock[t].append(clock[t].copy())
    return report


def replay_trace(trace, S, *, fault_plan=None) -> RaceReport:
    """Verify an :class:`~repro.machine.trace.ExecutionTrace` event log.

    The row→thread map and per-thread program order are reconstructed
    from the ``("row", r)``-labelled intervals; the per-thread order must
    be ascending in row id (the monotonic-counter contract), and the
    happens-before replay then runs exactly as :func:`replay_schedule`.
    A timing cross-check additionally reports any read whose interval
    starts before its dependency's interval ends — a corrupted or
    hand-edited trace fails even if its schedule is legal.
    """
    row_ivs = [iv for iv in trace.intervals if isinstance(iv.label, tuple) and iv.label[:1] == ("row",)]
    m = len(row_ivs)
    thread_of = np.empty(m, dtype=np.int64)
    start = np.empty(m)
    stop = np.empty(m)
    seen = np.zeros(m, dtype=bool)
    for iv in row_ivs:
        r = int(iv.label[1])
        if r < 0 or r >= m or seen[r]:
            raise ValueError(
                f"trace is not a complete single execution of rows 0..{m - 1} "
                f"(bad or duplicate row label {iv.label!r})"
            )
        seen[r] = True
        thread_of[r] = int(iv.thread)
        start[r] = iv.start
        stop[r] = iv.stop
    report_order = []
    # per-thread execution order from interval starts
    for t in range(trace.n_threads):
        rows_t = np.nonzero(thread_of == t)[0]
        order = rows_t[np.argsort(start[rows_t], kind="stable")]
        for a, b in zip(order, order[1:]):
            if int(b) < int(a):
                report_order.append(
                    RaceWitness(
                        kind="program-order",
                        row=int(a),
                        dep=int(b),
                        thread=t,
                        dep_thread=t,
                        detail=f"thread {t} ran row {int(a)} (start {start[a]:g}) "
                        f"before row {int(b)} — publishes would not be monotonic",
                    )
                )
    report = replay_schedule(S, thread_of, m=m, fault_plan=fault_plan)
    report.witnesses.extend(report_order)
    # timing cross-check against the true DAG
    indptr, indices = S.indptr, S.indices
    tol = 1e-12
    for r in range(m):
        cols = indices[indptr[r] : indptr[r + 1]]
        for c in cols[cols < r]:
            c = int(c)
            if int(thread_of[c]) == int(thread_of[r]):
                continue
            if start[r] < stop[c] - tol:
                covered = fault_plan is not None and fault_plan.is_dropped(
                    int(thread_of[c]), c
                )
                report.witnesses.append(
                    RaceWitness(
                        kind="timing",
                        row=r,
                        dep=c,
                        thread=int(thread_of[r]),
                        dep_thread=int(thread_of[c]),
                        detail=f"interval of row {r} starts at {start[r]:g} before "
                        f"row {c} finishes at {stop[c]:g}"
                        + ("; its publish was dropped" if covered else ""),
                    )
                )
    return report


def replay_superstep_schedule(S, plan, *, step_ptr=None, part=None) -> RaceReport:
    """Vector-clock replay of a superstep schedule (:mod:`repro.sched`).

    A superstep schedule's only synchronization is the barrier at each
    step boundary: within a step, each thread runs its rows in plan
    order with *no* cross-thread edges.  The replay models exactly
    that — a barrier joins every thread's clock into every other's —
    and reports any dependency read that neither program order nor a
    crossed boundary orders.  On a plan the builder produced
    (cross-thread deps always in earlier steps) the report is clean;
    pass a tampered ``step_ptr`` (e.g. with one boundary deleted) to
    demonstrate detection — a deleted boundary shows up as
    ``missing-sync`` witnesses exactly like a deleted p2p sync edge.
    """
    rows = np.asarray(plan.rows, dtype=np.int64)
    thread_of = np.asarray(plan.thread_of, dtype=np.int64)
    if step_ptr is None:
        step_ptr = plan.step_ptr
    step_ptr = np.asarray(step_ptr, dtype=np.int64)
    if part is None:
        part = plan.part
    n = rows.shape[0]
    p = int(plan.n_threads)
    # per-thread program order = position in the plan's execution order
    seq_of = np.empty(n, dtype=np.int64)
    counters = [0] * p
    for r in rows:
        t = int(thread_of[r])
        seq_of[r] = counters[t]
        counters[t] += 1
    n_steps = int(step_ptr.shape[0]) - 1
    report = RaceReport(n_rows=n, n_threads=p, n_sync_edges=max(n_steps - 1, 0))
    clock = np.zeros((p, p), dtype=np.int64)
    indptr, indices = S.indptr, S.indices
    for s in range(n_steps):
        for j in range(int(step_ptr[s]), int(step_ptr[s + 1])):
            r = int(rows[j])
            t = int(thread_of[r])
            cols = indices[indptr[r] : indptr[r + 1]]
            deps = cols[cols < r] if part == "lower" else cols[cols > r]
            for c in deps:
                c = int(c)
                u = int(thread_of[c])
                report.n_reads_checked += 1
                if u == t:
                    if seq_of[c] >= seq_of[r]:
                        report.witnesses.append(
                            RaceWitness(
                                kind="program-order",
                                row=r,
                                dep=c,
                                thread=t,
                                dep_thread=u,
                                detail=f"same-thread rows out of plan order: "
                                f"seq({c})={int(seq_of[c])} >= seq({r})={int(seq_of[r])}",
                            )
                        )
                    continue
                if clock[t][u] < seq_of[c] + 1:
                    report.witnesses.append(
                        RaceWitness(
                            kind="missing-sync",
                            row=r,
                            dep=c,
                            thread=t,
                            dep_thread=u,
                            detail=f"rows {c} and {r} share superstep {s} across "
                            f"threads {u}/{t} with no barrier between them "
                            f"(consumer clock {int(clock[t][u])}, needs >= "
                            f"{int(seq_of[c]) + 1})",
                        )
                    )
            clock[t][t] += 1
        # the boundary barrier: everyone's history becomes everyone's past
        joined = clock.max(axis=0)
        clock[:] = joined
    return report
