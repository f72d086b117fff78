"""Segmented-Rows (SR) lower-stage method (§III-B, Figs. 5–6).

The excluded rows' sub-diagonal entries are grouped into *subblocks*
``L_{k,i}`` by the level (in the upper stage's level sets) of the column
they sit in.  Because the levels were computed on ``lower(A + Aᵀ)``,
columns within one subblock are mutually independent — the key
observation that lets the subblock be carved into fixed-size CSR5-style
*tiles* processed as vector operations.

Per Fig. 6, the execution is a task DAG:

* ``DIVIDE_COLUMNS(L_{k,i}, tile)`` — divide tile entries by the final
  diagonal of their column;
* ``UPDATE_BLOCK(L_{k,i} → L_{k,j}, tile)`` — multiply-subtract the
  tile's contribution into later subblocks (j > i) and the corner;
* ``FACTOR_LU`` — factor the trailing corner block once every update
  has landed.

Over ascending levels the subblocks list each row's columns ``< m`` in
ascending order (levels are contiguous in the permuted numbering), so
the SR order gives the sequential reference's bits and the numeric
factor is the one loop of :meth:`repro.core.javelin.JavelinILU.factor`.
This module keeps the tiling (:class:`SegmentedRows`) and its timing:
:func:`simulate_lower_sr` builds a
:class:`~repro.machine.tasking.TaskGraph` and runs it through the
OpenMP-task model, whose per-task overheads are what the paper observes
drowning SR's benefit at 68 KNL threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.plans import slot_updates
from ..machine.core import SimMachine
from ..machine.tasking import TaskGraph, simulate_task_graph
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from ..sparse.segscan import segment_ids_from_ptr

__all__ = ["SegmentedRows", "simulate_lower_sr"]


@dataclass
class SegmentedRows:
    """Tiled subblock structure of the lower-left block.

    Attributes
    ----------
    m:
        First lower row / corner column (permuted numbering).
    level_ptr:
        Upper-stage level boundaries (permuted row ids).
    tile_size:
        Entries per tile (user option; Fig. 5's tiles can span rows).
    sub_entries:
        Per upper level ``i``, an (n_i, 3) int array of
        ``(storage_idx, row, col)`` entries of ``L_{k,i}``, sorted by
        (col, row).
    """

    m: int
    level_ptr: np.ndarray
    tile_size: int
    sub_entries: list = field(default_factory=list)

    @classmethod
    def build(cls, S: CSRMatrix, m, level_ptr, tile_size=64):
        level_ptr = np.asarray(level_ptr, dtype=np.int64)
        row_of = segment_ids_from_ptr(S.indptr)
        kk = np.flatnonzero((row_of >= m) & (S.indices < m))
        ents = np.stack([kk, row_of[kk], S.indices[kk]], axis=1)
        ents = ents[np.lexsort((ents[:, 1], ents[:, 2]))]  # (col, row) order
        cut = np.searchsorted(ents[:, 2], level_ptr)  # levels are column ranges
        sub_entries = [ents[lo:hi] for lo, hi in zip(cut[:-1], cut[1:])]
        return cls(m=m, level_ptr=level_ptr, tile_size=int(tile_size), sub_entries=sub_entries)

    @property
    def n_levels(self):
        return len(self.sub_entries)

    def tiles_of(self, lvl):
        """Yield (tile_id_within_level, entry_array) chunks for level lvl."""
        ents = self.sub_entries[lvl]
        for tid, lo in enumerate(range(0, ents.shape[0], self.tile_size)):
            yield tid, ents[lo : lo + self.tile_size]

    def level_of_col(self, c):
        if c >= self.m:
            return self.n_levels  # corner pseudo-level
        return int(np.searchsorted(self.level_ptr, c, side="right")) - 1

    def tile_updates(self, S: CSRMatrix):
        """The UPDATE_BLOCK work of every tile, per target level.

        Tiles are numbered in ``(level, tile id)`` order.  Tile ``g``'s
        updates are ``ptr[g]:ptr[g+1]``: a target level each
        (:meth:`level_of_col`, ascending) with the (flops, touched) of
        the tile's candidates landing there.  Every candidate of
        :func:`~repro.kernels.plans.slot_updates` touches one entry,
        and a hit adds one multiply-subtract (2 flops).  Returns
        ``(ptr, target, flops, touched)`` as Python lists.
        """
        n_levels, size = self.n_levels, self.tile_size
        lens = np.array([e.shape[0] for e in self.sub_entries], dtype=np.int64)
        tiles = -(-lens // size)
        # a slot's tile: its level's first tile + its position in the level // size
        lvl = np.repeat(np.arange(n_levels), lens)
        pos = np.arange(lvl.shape[0]) - (np.cumsum(lens) - lens)[lvl]
        tile_of = np.full(S.nnz, -1, dtype=np.int64)  # storage index -> tile
        kk = np.concatenate([np.empty((0, 3), dtype=np.int64), *self.sub_entries])[:, 0]
        tile_of[kk] = (np.cumsum(tiles) - tiles)[lvl] + pos // size
        ex = slot_updates(S)
        tile = np.repeat(tile_of[ex.slot], np.diff(ex.cand_ptr))
        mine = tile >= 0
        col = ex.cand_col[mine]
        tgt = np.searchsorted(self.level_ptr, col, side="right") - 1
        tgt[col >= self.m] = n_levels
        keys, inv = np.unique(tile[mine] * (n_levels + 1) + tgt, return_inverse=True)
        flops = 2.0 * np.bincount(inv, weights=ex.hit[mine], minlength=keys.shape[0])
        touched = np.bincount(inv, minlength=keys.shape[0]).astype(np.float64)
        ptr = np.searchsorted(keys // (n_levels + 1), np.arange(int(tiles.sum()) + 1))
        return ptr.tolist(), (keys % (n_levels + 1)).tolist(), flops.tolist(), touched.tolist()


def simulate_lower_sr(
    S: CSRMatrix,
    sr: SegmentedRows,
    machine: SimMachine,
    corner_costs,
    *,
    start_time=0.0,
    runtime="openmp",
):
    """Simulate the SR stage's task DAG on the machine's task runtime.

    Parameters
    ----------
    corner_costs:
        ``(flops_C, touched_C)`` arrays (full length n) for the corner
        rows, from :func:`repro.core.symbolic.row_factor_costs_split`.

    Returns ``(makespan, trace)`` with times offset by ``start_time``.
    """
    graph = TaskGraph()
    updates_targeting = {lvl: [] for lvl in range(sr.n_levels + 1)}
    ptr, targets, flops, touched = sr.tile_updates(S)
    tile = 0

    for lvl in range(sr.n_levels):
        for tid, ents in sr.tiles_of(lvl):
            nent = ents.shape[0]
            div_cost = lambda th, ne=nent: machine.work_time(
                ne, 2.0 * ne, thread=th, vectorized=True
            )
            div_id = graph.add(
                div_cost,
                deps=updates_targeting[lvl],
                label=("sr_div", lvl, tid),
            )
            upd = slice(ptr[tile], ptr[tile + 1])
            tile += 1
            for tgt, f, t in zip(targets[upd], flops[upd], touched[upd]):
                upd_cost = lambda th, f=f, t=t: machine.work_time(
                    f, t, thread=th, vectorized=True
                )
                upd_id = graph.add(upd_cost, deps=(div_id,), label=("sr_upd", lvl, tid, tgt))
                if tgt <= sr.n_levels:
                    updates_targeting.setdefault(tgt, []).append(upd_id)

    fc, tc = corner_costs
    corner_total_f = float(fc[sr.m :].sum())
    corner_total_t = float(tc[sr.m :].sum())
    corner_deps = updates_targeting[sr.n_levels]
    graph.add(
        lambda th: machine.work_time(corner_total_f, corner_total_t, thread=th),
        deps=corner_deps,
        label=("sr_corner",),
    )

    makespan, trace = simulate_task_graph(graph, machine, runtime=runtime)
    # shift to the stage's start time
    shifted = ExecutionTrace(machine.n_threads)
    for iv in trace.intervals:
        shifted.record(iv.thread, iv.start + start_time, iv.stop + start_time, iv.label)
    return makespan + start_time, shifted
