"""Precomputed structures driving the level-batched kernels.

A :class:`TriSolvePlan` holds everything a batched triangular sweep
needs: the rows in level order, per-level boundaries, and — aligned
arrays — the storage index of every strict-part entry grouped by its
row's position in the level ordering.  With that in hand each level
solves as one gather / multiply / segment-reduce, and the plan is built
*without per-row Python loops* (one ``argsort`` over the strict-part
entries does the grouping), so symbolic setup scales with nnz.

The accumulation contract: within a row, entries appear in ascending
column order (CSR order, preserved by the stable sort), and the batched
segment reduction (:func:`numpy.bincount`) adds them strictly
sequentially in that order — exactly the scalar reference's
``s += data[k] * y[col[k]]`` loop, so the two sweeps agree
bit-for-bit.

A :class:`FactorSchedule` does the same for the numeric ILU factor: the
strict-lower slots grouped by (forward level, position in the row) and
the multiply-subtract updates each slot triggers, so the numeric phase
runs one group at a time instead of one row at a time.

Also here: the array-level level-set computations shared by the plans
and the symbolic cache, and the whole-matrix diagonal locator.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    "FactorSchedule",
    "build_factor_schedule",
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


@dataclass
class TriSolvePlan:
    """Gather/scatter structure for one level-batched triangular sweep.

    ``ent_idx[lev_ent_ptr[l]:lev_ent_ptr[l+1]]`` are the storage indices
    of the strict-``part`` entries of level ``l``'s rows, grouped by row
    (ascending row id within the level, ascending column within a row);
    ``ent_local`` maps each entry to its row's local index inside the
    level.  ``diag_idx`` is present for upper sweeps only.
    """

    part: str
    n: int
    rows: np.ndarray
    level_ptr: np.ndarray
    ent_idx: np.ndarray
    ent_local: np.ndarray
    lev_ent_ptr: np.ndarray
    diag_idx: np.ndarray | None = None

    @property
    def n_levels(self):
        return self.level_ptr.shape[0] - 1


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
    # position of each entry's row in the level ordering
    pos_of_row = np.empty(n, dtype=np.int64)
    pos_of_row[rows] = np.arange(n, dtype=np.int64)
    key = pos_of_row[row_of[ent_all]]
    order = np.argsort(key, kind="stable")  # stable: column order survives
    ent_idx = ent_all[order]
    ent_pos = key[order]
    # per-level entry boundaries: cumulative strict-part counts in level order
    cnt = np.bincount(row_of[ent_all], minlength=n) if ent_all.size else np.zeros(n, dtype=np.int64)
    row_ent_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(cnt[rows], out=row_ent_ptr[1:])
    lev_ent_ptr = row_ent_ptr[level_ptr]
    # local row index within the level
    lev_of_ent = np.searchsorted(level_ptr, ent_pos, side="right") - 1
    ent_local = ent_pos - level_ptr[lev_of_ent]
    return TriSolvePlan(
        part=part,
        n=n,
        rows=rows,
        level_ptr=level_ptr,
        ent_idx=ent_idx,
        ent_local=ent_local,
        lev_ent_ptr=lev_ent_ptr,
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
class FactorSchedule:
    """The update schedule of the level-batched numeric ILU factor.

    Every strict-lower slot ``(i, c)`` is one division: ``slot`` is its
    storage index and ``pivot`` the storage index of ``(c, c)``.  The
    slots are grouped by the forward level of row ``i`` and then by the
    slot's position ``j`` among row ``i``'s lower slots, in (level,
    ``j``) order.  Group ``g`` is ``slot[group_ptr[g]:group_ptr[g+1]]``,
    at most one slot per row, rows ascending; level ``L`` owns groups
    ``level_group_ptr[L]:level_group_ptr[L+1]``.  The group's update
    pairs are ``pair_ptr[g]:pair_ptr[g+1]``: target slot ``tgt`` in row
    ``i``, source slot ``src`` in the upper part of row ``c``, and
    ``own``, the index of the dividing slot inside its group.

    The ILU(k, τ) drop hook runs on a level's rows once its groups are
    done: level ``L`` drops rows ``drop_rows[drop_row_ptr[L]:drop_row_ptr[L+1]]``
    (the level sets' rows and pointers), whose off-diagonal slots are
    ``drop_slot[drop_ptr[L]:drop_ptr[L+1]]`` (ascending column within a
    row) with ``drop_local`` the row's index inside its level.  All
    index arrays are int32.
    """

    slot: np.ndarray
    pivot: np.ndarray
    group_ptr: np.ndarray
    level_group_ptr: np.ndarray
    tgt: np.ndarray
    src: np.ndarray
    own: np.ndarray
    pair_ptr: np.ndarray
    drop_rows: np.ndarray
    drop_row_ptr: np.ndarray
    drop_slot: np.ndarray
    drop_local: np.ndarray
    drop_ptr: np.ndarray

    @property
    def n_levels(self):
        return self.level_group_ptr.shape[0] - 1


def _i32(a):
    return np.ascontiguousarray(a, dtype=np.int32)


def build_factor_schedule(pattern, *, levels=None, diag_idx=None) -> FactorSchedule:
    """Build the numeric factor's update schedule of ``pattern``.

    Whole-array numpy: a stable sort on the key ``level * width + j``
    groups the lower slots, one ``np.repeat`` expands every slot over
    its pivot row's upper span, and one ``searchsorted`` over global
    ``(row, col)`` keys finds which of those columns row ``i`` stores.
    ``levels`` (forward level sets) and ``diag_idx`` can be supplied by
    the symbolic cache.
    """
    indptr, indices = pattern.indptr, pattern.indices
    if levels is None:
        levels = forward_level_sets(pattern)
    if diag_idx is None:
        diag_idx = diag_positions(pattern)
    n_levels = levels.level_ptr.shape[0] - 1
    row_of = segment_ids_from_ptr(indptr)
    lower = np.flatnonzero(indices < row_of)
    j = lower - indptr[row_of[lower]]
    width = np.int64(j.max(initial=0)) + 1

    # lower slots grouped by (level, j); the stable sort keeps rows ascending
    key = levels.level_of[row_of[lower]].astype(np.int64) * width + j
    order = np.argsort(key, kind="stable")
    slot, key = lower[order], key[order]
    l_row = row_of[slot]
    pivot = diag_idx[indices[slot]]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    group_ptr = np.r_[starts, slot.shape[0]]
    level_group_ptr = np.searchsorted(key[starts] // width, np.arange(n_levels + 1))

    # update pairs: every upper entry of pivot row c that row i also stores
    u_lo = pivot + 1
    cnt = indptr[indices[slot] + 1] - u_lo
    cand_ptr = np.zeros(slot.shape[0] + 1, dtype=np.int64)
    np.cumsum(cnt, out=cand_ptr[1:])
    q = np.repeat(np.arange(slot.shape[0], dtype=np.int64), cnt)
    src = np.arange(cand_ptr[-1], dtype=np.int64) + np.repeat(u_lo - cand_ptr[:-1], cnt)
    ncol = np.int64(pattern.n_cols)
    keys = row_of * ncol + indices
    want = l_row[q] * ncol + indices[src]
    tgt = np.searchsorted(keys, want)
    hit = keys[np.minimum(tgt, keys.shape[0] - 1)] == want
    q, src, tgt = q[hit], src[hit], tgt[hit]
    group_start = np.repeat(group_ptr[:-1], np.diff(group_ptr))
    pair_ptr = np.searchsorted(q, group_ptr)

    # drop hook: each level's rows' off-diagonal slots, after the level's groups
    drop_rows, drop_row_ptr = levels.rows, levels.level_ptr
    row_ptr, pos = segment_positions(indptr, drop_rows)
    seg = segment_ids_from_ptr(row_ptr)
    keep = pos != diag_idx[drop_rows[seg]]
    pos, seg = pos[keep], seg[keep]
    row_start = np.repeat(drop_row_ptr[:-1], np.diff(drop_row_ptr))

    return FactorSchedule(
        slot=_i32(slot),
        pivot=_i32(pivot),
        group_ptr=_i32(group_ptr),
        level_group_ptr=_i32(level_group_ptr),
        tgt=_i32(tgt),
        src=_i32(src),
        own=_i32(q - group_start[q]),
        pair_ptr=_i32(pair_ptr),
        drop_rows=_i32(drop_rows),
        drop_row_ptr=_i32(drop_row_ptr),
        drop_slot=_i32(pos),
        drop_local=_i32(seg - row_start[seg]),
        drop_ptr=_i32(np.searchsorted(seg, drop_row_ptr)),
    )
