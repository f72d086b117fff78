"""Dependency-pruning proof checker: sync set covers the true DAG.

§III-A of the paper argues that because each thread executes its rows in
ascending (level-ordered) id, waiting for "thread *u*'s counter has
passed row *x*" subsumes every dependency on an earlier row of *u* — so
one retained sync per (row, producer-thread) pair, bounded by the
*latest* dependency, replaces the full cross-thread edge set (the
sparsified synchronization of Park et al.).

This module turns that argument into a machine-checked proof.  Given a
pattern and a row→thread map, :func:`check_pruning` enumerates the true
dependency DAG (strict-lower pattern entries) and proves every edge
``c → r`` is *dominated*:

* **intra-thread** edges are covered by program order (``c < r`` and the
  owner runs rows ascending), and
* **cross-thread** edges are covered by a retained sync ``(u, need)`` of
  row ``r`` with ``need >= c`` and ``thread_of[need] == u`` — the
  monotonic counter passing ``need`` implies ``c`` is complete.

The retained set defaults to the implementation's own
(:func:`repro.kernels.plans.build_producer_csr`, the one table the
batched DES and the threaded runtime both wait on), so the check
certifies the shipped code, not a re-derivation.  The report
carries the paper's sparsification diagnostic: retained syncs vs. total
cross-thread edges (the pruning ratio).

Also here: structural coverage checks for the two lower-stage methods
(:func:`check_lower_er`, :func:`check_lower_sr`) — their safety rests on
phase/barrier structure rather than counters, and the checks verify the
read sets actually respect that structure.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .races import sync_edges_from_producer_csr, thread_sequences

__all__ = [
    "PruningReport",
    "check_pruning",
    "check_lower_er",
    "check_lower_sr",
]


@dataclass
class PruningReport:
    """Proof outcome plus the paper's sparsification diagnostics."""

    n_rows: int
    n_threads: int
    n_dag_edges: int = 0
    n_cross_edges: int = 0
    n_sync_edges: int = 0
    uncovered: list = field(default_factory=list)  # (row, dep, producer, why)

    @property
    def ok(self) -> bool:
        return not self.uncovered

    @property
    def pruning_ratio(self) -> float:
        """Retained syncs / cross-thread DAG edges (lower = more pruned)."""
        if self.n_cross_edges == 0:
            return 1.0 if self.n_sync_edges == 0 else float("inf")
        return self.n_sync_edges / self.n_cross_edges

    def format(self) -> str:
        base = (
            f"{self.n_dag_edges} dag edges ({self.n_cross_edges} cross-thread) on "
            f"{self.n_rows} rows / {self.n_threads} threads; "
            f"{self.n_sync_edges} syncs retained (pruning ratio "
            f"{self.pruning_ratio:.3f})"
        )
        if self.ok:
            return f"covered: {base}"
        lines = [f"NOT covered: {base}"]
        for row, dep, u, why in self.uncovered[:8]:
            lines.append(f"  edge {dep} -> {row} (producer thread {u}): {why}")
        if len(self.uncovered) > 8:
            lines.append(f"  ... and {len(self.uncovered) - 8} more")
        return "\n".join(lines)


def check_pruning(S, thread_of, *, m: int | None = None, sync=None) -> PruningReport:
    """Prove the pruned sync set dominates the true dependency DAG.

    ``sync`` — per-row ``{producer_thread: latest_row}`` — defaults to
    the implementation's producer table.  Returns a
    :class:`PruningReport`; ``report.ok`` is the proof verdict and
    ``report.uncovered`` lists every edge whose domination fails, with
    the reason.
    """
    thread_of = np.asarray(thread_of, dtype=np.int64)
    if m is None:
        m = int(thread_of.shape[0])
    _, seq_of = thread_sequences(thread_of, m)
    p = int(thread_of[:m].max()) + 1 if m else 1
    if sync is None:
        from ..kernels.plans import build_producer_csr

        sync = sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))
    report = PruningReport(n_rows=m, n_threads=p)
    report.n_sync_edges = sum(len(s) for s in sync)
    indptr, indices = S.indptr, S.indices
    for r in range(m):
        t = int(thread_of[r])
        waits = sync[r]
        # soundness of the retained edges themselves
        for u, need in waits.items():
            u, need = int(u), int(need)
            if u == t:
                report.uncovered.append(
                    (r, need, u, "self-wait: retained sync targets the row's own thread")
                )
            elif need >= r:
                report.uncovered.append(
                    (r, need, u, f"wait target {need} is not before row {r}")
                )
            elif need >= m or int(thread_of[need]) != u:
                report.uncovered.append(
                    (r, need, u, f"thread {u} does not own wait target row {need}")
                )
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r]
        for c in deps:
            c = int(c)
            u = int(thread_of[c])
            report.n_dag_edges += 1
            if u == t:
                # implied intra-thread order: ascending ids = program order
                if seq_of[c] >= seq_of[r]:
                    report.uncovered.append(
                        (r, c, u, "intra-thread order violated (non-ascending rows)")
                    )
                continue
            report.n_cross_edges += 1
            need = waits.get(u)
            if need is None:
                report.uncovered.append(
                    (r, c, u, f"no retained sync on producer thread {u}")
                )
            elif int(need) < c:
                report.uncovered.append(
                    (r, c, u, f"retained sync bound {int(need)} < dependency {c}")
                )
    return report


def check_lower_er(S, m: int, n_threads: int) -> PruningReport:
    """Coverage proof for the Even-Rows lower stage (§III-B).

    Phase 1 (parallel blocks) eliminates only columns ``< m`` — reads of
    upper-stage rows, all complete before the stage-entry barrier.
    Phase 2 (the corner) runs serially in ascending row order.  The
    check verifies every strict-lower dependency of a lower row is
    either ``< m`` (barrier-covered) or handled by the serial corner,
    and that the static blocks partition ``[m, n)``.
    """
    from ..core.lower_er import EvenRows

    n = S.n_rows
    report = PruningReport(n_rows=n - m, n_threads=int(n_threads))
    covered = np.zeros(n, dtype=bool)
    for t, lo, hi in EvenRows(m=m, n=n, n_threads=int(n_threads)).blocks():
        if np.any(covered[lo:hi]):
            report.uncovered.append((lo, hi, t, "ER blocks overlap"))
        covered[lo:hi] = True
    if not np.all(covered[m:n]):
        missing = int(np.nonzero(~covered[m:n])[0][0]) + m
        report.uncovered.append((missing, -1, -1, "ER blocks do not cover all lower rows"))
    indptr, indices = S.indptr, S.indices
    for r in range(m, n):
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r]
        for c in deps:
            c = int(c)
            report.n_dag_edges += 1
            if c < m:
                # phase 1 read, ordered by the stage-entry barrier
                report.n_sync_edges += 0
            else:
                # corner read: serial ascending order covers c < r
                report.n_cross_edges += 1
    # the barrier is the single retained sync of the stage
    report.n_sync_edges = 1 if n > m else 0
    return report


def check_lower_sr(sr, S, m: int, level_ptr) -> PruningReport:
    """Structural coverage proof for the Segmented-Rows lower stage.

    Verifies the tiled subblock structure a
    :class:`repro.core.lower_sr.SegmentedRows` carves: every entry of
    subblock ``L_{k,i}`` must sit in a lower row (``row >= m``) at a
    column inside upper level ``i`` (so the per-level join on the upper
    stage's completion dominates its DIVIDE), entries within a subblock
    must ascend in (column, row) order (the bit-identity contract), and
    the union of subblocks must be exactly the strict-``< m`` entries of
    the lower rows.
    """
    level_ptr = np.asarray(level_ptr, dtype=np.int64)
    n = S.n_rows
    report = PruningReport(n_rows=n - m, n_threads=1)
    seen = set()
    for lvl in range(sr.n_levels):
        ents = sr.sub_entries[lvl]
        lo_c, hi_c = int(level_ptr[lvl]), int(level_ptr[lvl + 1])
        prev = (-1, -1)
        for kk, r, c in ents:
            kk, r, c = int(kk), int(r), int(c)
            report.n_dag_edges += 1
            if r < m:
                report.uncovered.append((r, c, lvl, "subblock entry in an upper-stage row"))
            if not (lo_c <= c < hi_c):
                report.uncovered.append(
                    (r, c, lvl, f"column outside level {lvl} range [{lo_c}, {hi_c})")
                )
            if not (lo_c <= c < m):
                report.uncovered.append((r, c, lvl, "column not in the lower-left block"))
            if (c, r) <= prev:
                report.uncovered.append(
                    (r, c, lvl, "subblock entries not in ascending (col, row) order")
                )
            prev = (c, r)
            if int(S.indices[kk]) != c:
                report.uncovered.append((r, c, lvl, "storage index does not match column"))
            seen.add(kk)
    # completeness: every strict-lower-left entry appears in some subblock
    indptr, indices = S.indptr, S.indices
    for r in range(m, n):
        for kk in range(int(indptr[r]), int(indptr[r + 1])):
            if int(indices[kk]) >= m:
                break
            if kk not in seen:
                report.uncovered.append(
                    (r, int(indices[kk]), -1, "lower-left entry missing from all subblocks")
                )
    report.n_sync_edges = sr.n_levels  # one per-level join dominates each DIVIDE
    report.n_cross_edges = report.n_dag_edges
    return report
