"""Precomputed structures driving the level-batched kernels.

A :class:`TriSolvePlan` is a triangular part stored in level order: the
rows in level order, per-level boundaries, a per-row pointer into the
storage index of every strict-part entry, and each entry's column as a
position in that order.  Level ``l`` is then a contiguous CSR block
whose columns point into earlier levels, so one pass over the
positions in order solves the whole part: one call of the compiled C
row loop (or, without a compiler, one ``csr_matvec`` call per level).
The plan is built *without per-row Python
loops* (one segment gather takes each row's entries in level order), so
symbolic setup scales with nnz.

The accumulation contract: within a row, entries appear in ascending
column order (CSR order, kept by the segment gather), and the compiled
row sum adds them strictly sequentially in that order — exactly the
scalar reference's ``s += data[k] * y[col[k]]`` loop, so the two sweeps
agree bit-for-bit.

:func:`slot_updates` expands the numeric factor's work slot by slot
(every strict-lower slot over its pivot row's upper part), for the DES
cost counts and the Segmented-Rows tiles.

Also here: the array-level level-set computations shared by the plans
and the symbolic cache, and the whole-matrix diagonal locator.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..ordering.levelsets import LevelSets
from ..sparse.segscan import ptr_from_segment_ids, segment_ids_from_ptr, segment_positions

__all__ = [
    "TriSolvePlan",
    "build_trisolve_plan",
    "forward_level_sets",
    "backward_level_sets",
    "diag_positions",
    "build_producer_csr",
    "SlotUpdates",
    "slot_updates",
]


def _peel_levels(pattern, deps_mask) -> LevelSets:
    """Longest-path level sets of the DAG ``row -> col`` over masked entries.

    A Kahn peel, one level at a time: level 0 is every row without a
    dependency; a row joins the next level once the current level has
    released all of its dependencies.  It therefore lands one level above
    its deepest dependency, and each level comes out in ascending row id.
    """
    n = pattern.n_rows
    row_of = segment_ids_from_ptr(pattern.indptr)
    keep = deps_mask(row_of, pattern.indices)
    dep_row, dep_col = row_of[keep], pattern.indices[keep]
    waiting = np.bincount(dep_row, minlength=n)
    # dependents of every row, grouped by the row they wait on
    by_dep = np.argsort(dep_col, kind="stable")
    release_ptr = ptr_from_segment_ids(dep_col[by_dep], n)
    released = dep_row[by_dep]
    level_of = np.zeros(n, dtype=np.int64)
    frontier = np.flatnonzero(waiting == 0)
    levels = []
    while frontier.size:
        level_of[frontier] = len(levels)
        levels.append(frontier)
        rows = released[segment_positions(release_ptr, frontier)[1]]
        np.subtract.at(waiting, rows, 1)
        ready = np.sort(rows[waiting[rows] == 0])  # one copy per released dep
        frontier = ready[np.r_[True, ready[1:] != ready[:-1]]] if ready.size else ready
    level_ptr = np.zeros(len(levels) + 1, dtype=np.int64)
    np.cumsum([lv.shape[0] for lv in levels], out=level_ptr[1:])
    rows = np.concatenate(levels) if levels else np.empty(0, dtype=np.int64)
    return LevelSets(level_of=level_of, level_ptr=level_ptr, rows=rows)


def forward_level_sets(pattern) -> LevelSets:
    """Level sets of the forward sweep: deps are strict-lower entries.

    ``level[i] = 1 + max(level[j] : j < i, s_ij ≠ 0)``, 0 without deps;
    upper and diagonal entries are ignored, so this is also the level
    schedule of ``lower(S)``.
    """
    return _peel_levels(pattern, lambda row, col: col < row)


def backward_level_sets(pattern) -> LevelSets:
    """Level sets of the backward sweep: deps are strict-upper entries.

    ``level[i] = 1 + max(level[j] : j > i, s_ij ≠ 0)``; rows solved
    first (no upper deps) land in level 0.
    """
    return _peel_levels(pattern, lambda row, col: col > row)


def diag_positions(pattern):
    """Storage index of every ``(r, r)`` entry, whole-matrix vectorized.

    One ``searchsorted`` over global ``(row, col)`` keys replaces the
    per-row loop.  A row without a stored diagonal raises
    ``ValueError`` naming the first such row.
    """
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    if n == 0:
        return np.empty(0, dtype=np.int64)
    ncol = np.int64(pattern.n_cols)
    keys = segment_ids_from_ptr(indptr) * ncol + indices
    want = np.arange(n, dtype=np.int64) * (ncol + 1)
    pos = np.searchsorted(keys, want)
    nnz = keys.shape[0]
    bad = (pos >= nnz) | (keys[np.minimum(pos, nnz - 1)] != want)
    if np.any(bad):
        row = int(np.flatnonzero(bad)[0])
        raise ValueError(f"missing diagonal in factored row {row}")
    return pos.astype(np.int64)


def _i32(a):
    return np.ascontiguousarray(a, dtype=np.int32)


@dataclass
class TriSolvePlan:
    """Level-ordered CSR structure for one level-batched triangular sweep.

    Position ``p`` of the level ordering holds row ``rows[p]``; level
    ``l`` is the position range ``level_ptr[l]:level_ptr[l+1]`` (rows
    ascending).  ``ent_idx[ent_ptr[p]:ent_ptr[p+1]]`` are the storage
    indices of that row's strict-``part`` entries in ascending column
    order, and ``ent_col`` holds each entry's column as a position in
    the level ordering, so it points into an earlier level.  ``ent_ptr``
    and ``ent_col`` are int32, the index type the compiled sweep takes.
    ``diag_idx`` is present for upper sweeps only.
    """

    part: str
    n: int
    rows: np.ndarray
    level_ptr: np.ndarray
    ent_idx: np.ndarray
    ent_ptr: np.ndarray
    ent_col: np.ndarray
    diag_idx: np.ndarray | None = None

    @property
    def n_levels(self):
        return self.level_ptr.shape[0] - 1

    @cached_property
    def addresses(self):
        """The data addresses of ``ent_ptr`` and ``ent_col``, for the compiled sweep.

        Cached because ``ndarray.ctypes`` costs about 3 µs a call; a plan's
        arrays are never reassigned, so the addresses stay valid.
        """
        return self.ent_ptr.ctypes.data, self.ent_col.ctypes.data


def build_trisolve_plan(pattern, part, *, levels=None, diag_idx=None) -> TriSolvePlan:
    """Build the batched sweep structure for ``part`` ('lower'|'upper').

    ``levels`` (a :class:`LevelSets`) and ``diag_idx`` can be supplied
    by the symbolic cache to avoid recomputation.
    """
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    n = pattern.n_rows
    indptr, indices = pattern.indptr, pattern.indices
    if levels is None:
        levels = forward_level_sets(pattern) if part == "lower" else backward_level_sets(pattern)
    if part == "upper" and diag_idx is None:
        diag_idx = diag_positions(pattern)
    rows = np.asarray(levels.rows, dtype=np.int64)
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)

    row_of = segment_ids_from_ptr(indptr)
    mask = indices < row_of if part == "lower" else indices > row_of
    ent_all = np.flatnonzero(mask)  # CSR order: row-major, ascending column
    # each row's entry segment, rows taken in level order
    ent_ptr, pos = segment_positions(ptr_from_segment_ids(row_of[ent_all], n), rows)
    ent_idx = ent_all[pos]
    pos_of_row = np.empty(n, dtype=np.int64)
    pos_of_row[rows] = np.arange(n, dtype=np.int64)
    return TriSolvePlan(
        part=part,
        n=n,
        rows=rows,
        level_ptr=level_ptr,
        ent_idx=ent_idx,
        ent_ptr=_i32(ent_ptr),
        ent_col=_i32(pos_of_row[indices[ent_idx]]),
        diag_idx=diag_idx,
    )


def build_producer_csr(S, m, thread_of):
    """Per-row producer table for the p2p DES, built in one shot.

    For every row ``r < m`` and every *other* thread ``u`` owning at
    least one of ``r``'s strict-lower dependencies, record the latest
    such dependency row (its finish bounds every earlier one under the
    implied ordering).  Returns ``(ptr, producer_thread, latest_dep)``
    as a CSR-like triple over rows — the per-row ``np.unique`` +
    boolean-mask work the scalar DES loop repeats is done once here.
    """
    thread_of = np.asarray(thread_of, dtype=np.int64)
    p = int(thread_of.max()) + 1 if thread_of.size else 1
    ptr = np.zeros(m + 1, dtype=np.int64)
    if m == 0:
        return ptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    end = int(S.indptr[m])
    cols = S.indices[:end]
    row_of = segment_ids_from_ptr(S.indptr[: m + 1])
    dep_mask = cols < row_of  # deps of r<m are all < r, hence below m too
    d = cols[dep_mask]
    r_of = row_of[dep_mask]
    if d.size == 0:
        return ptr, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)
    u = thread_of[d]
    key = r_of * p + u
    order = np.argsort(key, kind="stable")  # within a group, dep rows ascend
    ks = key[order]
    ds = d[order]
    last = np.flatnonzero(np.r_[ks[1:] != ks[:-1], np.ones(1, dtype=bool)])
    gkey = ks[last]
    latest = ds[last]
    g_row = gkey // p
    g_u = gkey % p
    keep = g_u != thread_of[g_row]  # program order covers same-thread deps
    g_row, g_u, latest = g_row[keep], g_u[keep], latest[keep]
    np.cumsum(np.bincount(g_row, minlength=m), out=ptr[1:])
    return ptr, g_u, latest


@dataclass
class SlotUpdates:
    """The up-looking kernel's work on a pattern, slot by slot (Fig. 1).

    Strict-lower slot ``s`` (storage index ``slot[s]``, storage order)
    of row ``row[s]`` divides by the pivot stored at ``pivot[s]`` of
    row ``col[s]``.  Its candidates ``cand_ptr[s]:cand_ptr[s+1]`` are
    that pivot row's upper entries (storage index ``src``, column
    ``cand_col``; ``cand_row`` repeats ``row[s]``).  ``tgt`` is where
    ``cand_col`` sits, or would be inserted, among row ``cand_row``'s
    storage, and ``hit`` marks the candidates that row stores: one
    multiply-subtract each.
    """

    slot: np.ndarray
    row: np.ndarray
    col: np.ndarray
    pivot: np.ndarray
    cand_ptr: np.ndarray
    src: np.ndarray
    cand_row: np.ndarray
    cand_col: np.ndarray
    tgt: np.ndarray
    hit: np.ndarray

    def hits_per_slot(self):
        """Multiply-subtract updates of every slot."""
        return np.diff(np.r_[0, np.cumsum(self.hit)][self.cand_ptr])


def slot_updates(pattern, *, diag_idx=None) -> SlotUpdates:
    """Expand every strict-lower slot of ``pattern`` over its pivot row.

    One ``np.repeat`` expands the slots over their pivot rows' upper
    spans, and one ``searchsorted`` over global ``(row, col)`` keys
    finds which of those columns row ``i`` stores.  Rows must be
    sorted; a missing diagonal raises :func:`diag_positions`'
    ``ValueError``.  ``diag_idx`` can be supplied by the symbolic cache.
    """
    indptr, indices = pattern.indptr, pattern.indices
    if diag_idx is None:
        diag_idx = diag_positions(pattern)
    row_of = segment_ids_from_ptr(indptr)
    slot = np.flatnonzero(indices < row_of)  # storage order: a row's lower slots lead it
    row, col = row_of[slot], indices[slot]
    pivot = diag_idx[col]
    u_lo = pivot + 1
    cnt = indptr[col + 1] - u_lo
    cand_ptr = np.zeros(slot.shape[0] + 1, dtype=np.int64)
    np.cumsum(cnt, out=cand_ptr[1:])
    src = np.arange(cand_ptr[-1], dtype=np.int64) + np.repeat(u_lo - cand_ptr[:-1], cnt)
    cand_row, cand_col = np.repeat(row, cnt), indices[src]
    ncol = np.int64(pattern.n_cols)
    keys = row_of * ncol + indices
    want = cand_row * ncol + cand_col
    tgt = np.searchsorted(keys, want)
    hit = keys[np.minimum(tgt, keys.shape[0] - 1)] == want
    return SlotUpdates(slot, row, col, pivot, cand_ptr, src, cand_row, cand_col, tgt, hit)
