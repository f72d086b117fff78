"""Static deadlock/termination analysis for the trisolve schedulers.

:func:`repro.verify.races.replay_superstep_schedule` checks a
:class:`~repro.sched.superstep.SuperstepPlan` *dynamically* — it
executes the schedule with vector clocks.  This module proves the same
properties (and the elastic/sync-free counterparts) without executing,
by constructing each scheduler's **wait-for graph** and checking it is
acyclic:

* **superstep** (:func:`check_superstep_deadlock`) — rows wait on
  their same-thread predecessor (program order), on the barrier
  closing the previous superstep, and — data — on every strict-part
  dependency.  A valid plan puts every cross-thread dependency in an
  earlier superstep, so the graph is a DAG; a dependency pointing at a
  *later* superstep closes a cycle through the barrier (the thread
  waits at a barrier that waits on a row that waits on the thread),
  and a same-step cross-thread dependency is an unordered read — the
  static twin of the replay's ``missing-sync`` witness;
* **sync-free** (:func:`check_syncfree_deadlock`) — lane ``r mod p``
  executes its rows in traversal order and polls a ready flag per
  dependency (:func:`repro.sched.simulate_syncfree`, the p2p
  DES sweep :func:`repro.core.upper.simulate_sweep` under that
  order and lane map, which itself rejects a traversal that runs a row
  before a dependency).  The
  wait-for graph is (data edges) ∪ (lane program order); with the
  natural ascending/descending traversal it is a DAG because data
  edges always point against the traversal, and the check proves it by
  topological sort, so a tampered traversal order yields an explicit
  poll cycle — two lanes spinning on each other's flags forever;
* **elastic** (:func:`check_elastic_schedule`) — the stale-synchronous
  mode has no waits to deadlock on; its termination claim is the
  ``final_sweep`` fixpoint (:mod:`repro.sched.elastic`).  The check
  recomputes the recursion, demands the stored depths match (a
  tampered ``final_sweep`` makes sweep ``k`` commit a stale read as
  final — the witness names the row), and proves the bound
  ``final_sweep[r] <= staleness * block_of[r] + level_of[r] mod
  (staleness+1)`` — which for a DAG fitting one block is exactly the
  ``max_sweeps = staleness + 1`` guarantee, and in general caps the
  sweep count at ``staleness * n_blocks + 1``.

Witnesses carry the full wait chain, formatted sanitizer-style like
the race and protocol reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "WaitWitness",
    "DeadlockReport",
    "check_superstep_deadlock",
    "check_syncfree_deadlock",
    "check_elastic_schedule",
]


@dataclass(frozen=True)
class WaitWitness:
    """One wait-for cycle or unordered read, with its wait chain.

    ``kind`` is ``"deadlock"`` (a cycle: every party waits forever),
    ``"unordered-read"`` (a same-step cross-thread dependency no
    barrier or program order covers), ``"program-order"`` (a thread's
    own program reads ahead of itself), or ``"fixpoint"`` (an elastic
    ``final_sweep`` entry too small for its dependency chain).
    """

    kind: str
    detail: str
    chain: tuple = ()

    def format(self) -> str:
        lines = [
            f"WARNING: repro.verify.deadlock: scheduler hazard ({self.kind})",
            f"  {self.detail}",
        ]
        if self.chain:
            lines.append(f"  Wait chain ({len(self.chain)} waits):")
            lines.extend(f"    #{i + 1} {step}" for i, step in enumerate(self.chain))
        return "\n".join(lines)


@dataclass
class DeadlockReport:
    """Outcome of one static wait-for-graph analysis."""

    subsystem: str
    n_rows: int = 0
    n_edges: int = 0
    witnesses: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses and not self.errors

    def format(self, max_witnesses: int = 4) -> str:
        if self.ok:
            return (
                f"{self.subsystem}: wait-for graph acyclic, {self.n_edges} edges "
                f"over {self.n_rows} rows — every execution terminates"
            )
        head = [
            f"{self.subsystem}: {len(self.witnesses)} hazard(s), "
            f"{len(self.errors)} structural error(s)"
        ]
        head += [w.format() for w in self.witnesses[:max_witnesses]]
        head += [f"  error: {e}" for e in self.errors[:max_witnesses]]
        rest = len(self.witnesses) + len(self.errors) - 2 * max_witnesses
        if rest > 0:
            head.append(f"  ... and more")
        return "\n".join(head)


def _strict_edges(pattern, part):
    """Every strict-``part`` dependency edge ``(dep, row)``, vectorized."""
    n = pattern.n_rows
    row_of = np.repeat(np.arange(n, dtype=np.int64), np.diff(pattern.indptr))
    mask = pattern.indices < row_of if part == "lower" else pattern.indices > row_of
    return pattern.indices[mask].astype(np.int64), row_of[mask]


def check_superstep_deadlock(
    plan,
    pattern,
    *,
    step_ptr=None,
    step_of=None,
    thread_of=None,
) -> DeadlockReport:
    """Prove a superstep plan's wait-for graph is a DAG; witness cycles.

    ``step_ptr`` (a tampered barrier layout over ``plan.rows``, the
    same handle ``replay_superstep_schedule`` takes) or
    ``step_of``/``thread_of`` override the plan's maps — the
    selftest's way of planting bugs without rebuilding a plan.
    The graph never needs materializing: with barriers between
    consecutive steps and per-thread program order inside a step, an
    edge classification decides everything — a dependency in an
    earlier step is barrier-ordered, a same-step same-thread
    dependency earlier in program order is program-ordered, a
    same-step cross-thread dependency is an unordered read, a
    same-step same-thread dependency *later* in program order is a
    program-order inversion, and a dependency in a later step closes
    a wait cycle through the barrier.
    """
    if step_ptr is not None:
        if step_of is not None:
            raise ValueError("pass step_ptr or step_of, not both")
        sp = np.asarray(step_ptr, dtype=np.int64)
        step_of = np.empty(plan.n, dtype=np.int64)
        step_of[np.asarray(plan.rows)] = (
            np.searchsorted(sp, np.arange(plan.n), side="right") - 1
        )
    step_of = np.asarray(plan.step_of if step_of is None else step_of, dtype=np.int64)
    thread_of = np.asarray(
        plan.thread_of if thread_of is None else thread_of, dtype=np.int64
    )
    rep = DeadlockReport(subsystem=f"superstep/{plan.part}", n_rows=plan.n)
    d, r = _strict_edges(pattern, plan.part)
    rep.n_edges = int(d.shape[0])
    if rep.n_edges == 0:
        return rep
    pos = np.empty(plan.n, dtype=np.int64)
    pos[plan.rows] = np.arange(plan.n, dtype=np.int64)

    later = np.flatnonzero(step_of[d] > step_of[r])
    for j in later[:4]:
        dj, rj, sd, sr = int(d[j]), int(r[j]), int(step_of[d[j]]), int(step_of[r[j]])
        rep.witnesses.append(
            WaitWitness(
                kind="deadlock",
                detail=(
                    f"row {rj} (step {sr}) reads dependency {dj} scheduled in the "
                    f"*later* step {sd}: the barrier chain closes a wait cycle"
                ),
                chain=(
                    f"row {rj} waits on data from row {dj} (flag/poll)",
                    f"row {dj} waits on barrier(step {sd - 1}) (it runs in step {sd})",
                    f"barrier(step {sr}) <= barrier(step {sd - 1}) waits on every "
                    f"row of step {sr}",
                    f"... including row {rj} — cycle",
                ),
            )
        )

    same = step_of[d] == step_of[r]
    cross = np.flatnonzero(same & (thread_of[d] != thread_of[r]))
    for j in cross[:4]:
        dj, rj = int(d[j]), int(r[j])
        rep.witnesses.append(
            WaitWitness(
                kind="unordered-read",
                detail=(
                    f"row {rj} (thread {int(thread_of[rj])}) reads row {dj} "
                    f"(thread {int(thread_of[dj])}) inside the same step "
                    f"{int(step_of[rj])}: no barrier or program order covers it"
                ),
                chain=(
                    f"thread {int(thread_of[rj])} computes row {rj} without waiting",
                    f"thread {int(thread_of[dj])} computes row {dj} concurrently",
                ),
            )
        )

    inverted = np.flatnonzero(same & (thread_of[d] == thread_of[r]) & (pos[d] >= pos[r]))
    for j in inverted[:4]:
        dj, rj = int(d[j]), int(r[j])
        rep.witnesses.append(
            WaitWitness(
                kind="program-order",
                detail=(
                    f"thread {int(thread_of[rj])} executes row {rj} before its own "
                    f"dependency {dj} in step {int(step_of[rj])}"
                ),
            )
        )
    # count the uncounted tail so reports stay honest about scale
    extra = (len(later) - 4) + (len(cross) - 4) + (len(inverted) - 4)
    if extra > 0:
        rep.errors.append(f"{extra} further hazardous dependency edge(s) elided")
    return rep


def check_syncfree_deadlock(
    pattern,
    n_lanes: int,
    part: str = "lower",
    *,
    order=None,
) -> DeadlockReport:
    """Prove the sync-free flag-poll graph acyclic by topological sort.

    ``order`` overrides the traversal (default: ascending rows for the
    lower part, descending for the upper — the order
    :func:`~repro.sched.simulate_syncfree` hands the shared
    p2p DES sweep, :func:`~repro.core.upper.simulate_sweep`).  Edges are
    ``row -> dependency`` (flag poll) and ``row -> lane predecessor``
    (a lane is one in-order program).  A cycle means a set of lanes
    each spinning on a flag the others can never set.
    """
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    p = int(n_lanes)
    if p < 1:
        raise ValueError(f"n_lanes must be >= 1, got {n_lanes}")
    n = pattern.n_rows
    rep = DeadlockReport(subsystem=f"syncfree/{part}", n_rows=n)
    if order is None:
        order = np.arange(n) if part == "lower" else np.arange(n - 1, -1, -1)
    order = np.asarray(order, dtype=np.int64)
    if order.shape != (n,) or not np.array_equal(np.sort(order), np.arange(n)):
        rep.errors.append("traversal order is not a permutation of the rows")
        return rep
    d, r = _strict_edges(pattern, part)
    # lane program-order edges: each row waits on the previous row its
    # lane executes (lane = row mod p, in traversal order)
    last = np.full(p, -1, dtype=np.int64)
    lane_src, lane_dst = [], []
    for row in order:
        lane = int(row) % p
        if last[lane] >= 0:
            lane_src.append(int(row))
            lane_dst.append(int(last[lane]))
        last[lane] = int(row)
    src = np.concatenate([r, np.asarray(lane_src, dtype=np.int64)])
    dst = np.concatenate([d, np.asarray(lane_dst, dtype=np.int64)])
    kinds = np.concatenate(
        [np.zeros(r.shape[0], np.int64), np.ones(len(lane_src), np.int64)]
    )
    rep.n_edges = int(src.shape[0])
    # Kahn: repeatedly retire rows all of whose waits are satisfied
    indeg = np.bincount(src, minlength=n)  # how many waits each row holds
    order_by_dst = np.argsort(dst, kind="stable")
    dst_sorted = dst[order_by_dst]
    starts = np.searchsorted(dst_sorted, np.arange(n))
    stops = np.searchsorted(dst_sorted, np.arange(n), side="right")
    ready = [int(i) for i in np.flatnonzero(indeg == 0)]
    n_done = 0
    while ready:
        v = ready.pop()
        n_done += 1
        for e in order_by_dst[starts[v] : stops[v]]:
            s = int(src[e])
            indeg[s] -= 1
            if indeg[s] == 0:
                ready.append(s)
    if n_done == n:
        return rep
    # a cycle survives: walk it out of the remaining subgraph
    remaining = np.flatnonzero(indeg > 0)
    nxt = {}
    for v in remaining:
        v = int(v)
        for j in np.flatnonzero(src == v):
            w = int(dst[j])
            if indeg[w] > 0:
                nxt[v] = (w, "flag poll" if kinds[j] == 0 else "lane order")
                break
    v0 = int(remaining[0])
    seen = {}
    v = v0
    path = []
    while v not in seen and v in nxt:
        seen[v] = len(path)
        w, why = nxt[v]
        path.append((v, w, why))
        v = w
    cycle = path[seen.get(v, 0) :]
    chain = tuple(
        f"row {a} (lane {a % p}) waits on row {b} (lane {b % p}) [{why}]"
        for a, b, why in cycle
    )
    rep.witnesses.append(
        WaitWitness(
            kind="deadlock",
            detail=(
                f"{len(remaining)} row(s) can never start: flag-poll cycle "
                f"across lanes (no barrier exists to break it)"
            ),
            chain=chain + ("... back to the start — cycle",),
        )
    )
    return rep


def check_elastic_schedule(sched, pattern) -> DeadlockReport:
    """Verify elastic structure, the fixpoint recursion, and its bound.

    Recomputes ``block_of`` and the ``final_sweep`` recursion from the
    pattern and demands the stored schedule match; any row whose
    stored depth is *smaller* than required is a termination bug
    (sweep ``final_sweep[r]`` would commit a stale read as final) and
    gets a ``fixpoint`` witness with its dependency chain.  Also
    proves the per-row bound ``final_sweep[r] <= staleness *
    block_of[r] + (level_of[r] mod (staleness+1))``, whose corollary
    is the paper's fixpoint guarantee: ``n_sweeps <= staleness + 1``
    per block, ``staleness * n_blocks + 1`` overall.
    """
    rep = DeadlockReport(subsystem=f"elastic/{sched.part}", n_rows=sched.n)
    n = sched.n
    span = sched.staleness + 1
    level_of = np.asarray(sched.level_of, dtype=np.int64)
    expect_block = level_of // span
    if not np.array_equal(np.asarray(sched.block_of), expect_block):
        rep.errors.append("block_of != level_of // (staleness + 1)")
    rows = np.asarray(sched.rows, dtype=np.int64)
    if rows.shape != (n,) or not np.array_equal(np.sort(rows), np.arange(n)):
        rep.errors.append("rows is not a permutation of 0..n-1")
        return rep
    if np.any(np.diff(level_of[rows]) < 0):
        rep.errors.append("rows is not in level (topological) order")
        return rep
    d, r = _strict_edges(pattern, sched.part)
    rep.n_edges = int(d.shape[0])
    # recompute the recursion in the schedule's own topological order
    need = np.zeros(n, dtype=np.int64)
    ent_ptr, ent_idx = sched.ent_ptr, sched.ent_idx
    indices = pattern.indices
    for row in rows:
        row = int(row)
        ents = ent_idx[ent_ptr[row] : ent_ptr[row + 1]]
        if ents.size:
            dd = indices[ents]
            fs = need[dd] + (expect_block[dd] == expect_block[row])
            need[row] = int(fs.max())
    stored = np.asarray(sched.final_sweep, dtype=np.int64)
    low = np.flatnonzero(stored < need)
    for row in low[:4]:
        row = int(row)
        ents = ent_idx[ent_ptr[row] : ent_ptr[row + 1]]
        dd = indices[ents]
        culprit = int(dd[np.argmax(need[dd] + (expect_block[dd] == expect_block[row]))])
        rep.witnesses.append(
            WaitWitness(
                kind="fixpoint",
                detail=(
                    f"row {row}: stored final_sweep {int(stored[row])} < required "
                    f"{int(need[row])} — sweep {int(stored[row])} commits a stale "
                    f"read of row {culprit} as final and the solve terminates wrong"
                ),
                chain=(
                    f"row {row} (block {int(expect_block[row])}) reads row {culprit} "
                    f"(block {int(expect_block[culprit])}, final_sweep "
                    f"{int(need[culprit])})",
                    f"a same-block read is stale until sweep {int(need[row])}",
                ),
            )
        )
    if low.size > 4:
        rep.errors.append(f"{low.size - 4} further under-counted final_sweep row(s)")
    high = np.flatnonzero(stored > need)
    if high.size:
        rep.errors.append(
            f"{high.size} row(s) with final_sweep larger than the recursion "
            f"requires (wasted correction sweeps)"
        )
    # the provable bound: staleness increments per block, plus the
    # within-block level offset
    bound = sched.staleness * expect_block + (level_of - expect_block * span)
    over = np.flatnonzero(need > bound)
    if over.size:
        row = int(over[0])
        rep.errors.append(
            f"fixpoint bound violated at row {row}: final_sweep {int(need[row])} > "
            f"staleness*block + level offset {int(bound[row])} (recursion broken)"
        )
    # ent CSR must be exactly the strict part (bit-identity gather order)
    cnt = np.bincount(r, minlength=n) if d.size else np.zeros(n, np.int64)
    if not np.array_equal(np.diff(ent_ptr), cnt):
        rep.errors.append("ent_ptr does not match the strict-part row degrees")
    return rep
