"""Stale-synchronous elastic scheduling for triangular solves.

After Steiner et al. (*Elasticity in Parallel Sparse Triangular
Solve*): instead of synchronizing at every level, fuse ``staleness + 1``
consecutive levels into a **block** and let threads race through a
block without any intra-block synchronization — a row may therefore
read dependency values up to ``staleness`` levels stale (the
deterministic model here: intra-block reads see the block-entry
snapshot; cross-block reads see finished values).  Wrong reads are
repaired by **correction sweeps**: re-running the not-yet-final rows,
block by block, until every row has consumed final inputs.

The convergence argument is structural, not numerical.  Define
``final_sweep[r]`` by the recursion

    final_sweep[r] = max over deps d of
        final_sweep[d] + 1   if d is in r's block   (stale read)
        final_sweep[d]       if d is in an earlier block (fresh read)

(0 with no deps).  Sweep ``k`` recomputes exactly the rows with
``final_sweep >= k``; after its sweep ``final_sweep[r]``, row ``r``
holds the bit-exact reference value (every input it read was final).
The whole solve therefore finishes in ``max(final_sweep) + 1`` sweeps
— elasticity trades ``n_levels`` synchronizations for
``n_blocks × n_sweeps`` *cheaper* ones, which wins exactly when
intra-block dependency chains are short (shallow, wide DAGs) and loses
on deep chains (``final_sweep`` grows by ``staleness`` per block).
``elastic_tol > 0`` stops sweeping early instead, accepting an
iterative-correction answer within the given tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..kernels import cached_analysis
from ..kernels.plans import backward_level_sets, diag_positions, forward_level_sets
from ..obs import spans as _spans
from ..sparse.segscan import ptr_from_segment_ids, segment_ids_from_ptr, segment_positions
from .options import SchedOptions

__all__ = [
    "ElasticSchedule",
    "build_elastic_schedule",
    "elastic_solve",
    "elastic_solve_part",
    "simulate_elastic",
]


@dataclass
class ElasticSchedule:
    """Structural products of one stale-synchronous sweep schedule.

    ``block_of[r] = level_of[r] // (staleness + 1)``; ``final_sweep``
    is the correction-depth recursion above; ``ent_ptr``/``ent_idx``
    are the strict-``part`` entries of each row (CSR order, ascending
    column — the bit-identity accumulation order), used by the numeric
    sweep to gather arbitrary active-row subsets.
    """

    part: str
    staleness: int
    n: int
    level_of: np.ndarray
    level_ptr: np.ndarray
    rows: np.ndarray
    block_of: np.ndarray
    final_sweep: np.ndarray
    ent_ptr: np.ndarray
    ent_idx: np.ndarray
    diag_idx: np.ndarray | None = None

    @property
    def n_levels(self) -> int:
        return self.level_ptr.shape[0] - 1

    @property
    def n_blocks(self) -> int:
        span = self.staleness + 1
        return -(-self.n_levels // span) if self.n_levels else 0

    @property
    def n_sweeps(self) -> int:
        """Sweeps to the exact fixpoint (``max(final_sweep) + 1``)."""
        return int(self.final_sweep.max()) + 1 if self.n else 0

    def block_levels(self, b):
        """The level range ``[lo, hi)`` of block ``b``."""
        span = self.staleness + 1
        return b * span, min((b + 1) * span, self.n_levels)


def build_elastic_schedule(
    pattern,
    part: str = "lower",
    *,
    staleness: int,
    levels=None,
    diag_idx=None,
) -> ElasticSchedule:
    """Build the stale-synchronous schedule of ``pattern``'s ``part`` DAG."""
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    staleness = int(staleness)
    if staleness < 0:
        raise ValueError(f"staleness must be >= 0, got {staleness}")
    n = pattern.n_rows
    if levels is None:
        levels = forward_level_sets(pattern) if part == "lower" else backward_level_sets(pattern)
    if part == "upper" and diag_idx is None:
        diag_idx = diag_positions(pattern)
    level_of = np.asarray(levels.level_of, dtype=np.int64)
    block_of = level_of // (staleness + 1)
    indptr, indices = pattern.indptr, pattern.indices
    # strict-part entry CSR (storage indices, ascending column per row)
    row_of = segment_ids_from_ptr(indptr)
    ent_idx = np.flatnonzero(indices < row_of if part == "lower" else indices > row_of)
    ent_ptr = ptr_from_segment_ids(row_of[ent_idx], n)
    # correction-depth recursion, one level at a time: a row's deps all
    # sit in earlier levels, so their final_sweep is already known
    level_ptr = np.asarray(levels.level_ptr, dtype=np.int64)
    e_row = row_of[ent_idx]
    by_level = np.argsort(level_of[e_row], kind="stable")
    e_row = e_row[by_level]
    e_col = indices[ent_idx[by_level]]
    stale = block_of[e_col] == block_of[e_row]
    lev_ent_ptr = ptr_from_segment_ids(level_of[e_row], level_ptr.shape[0] - 1)
    final_sweep = np.zeros(n, dtype=np.int64)
    for lo, hi in zip(lev_ent_ptr[:-1].tolist(), lev_ent_ptr[1:].tolist()):
        np.maximum.at(final_sweep, e_row[lo:hi], final_sweep[e_col[lo:hi]] + stale[lo:hi])
    return ElasticSchedule(
        part=part,
        staleness=staleness,
        n=n,
        level_of=level_of,
        level_ptr=level_ptr,
        rows=np.asarray(levels.rows, dtype=np.int64),
        block_of=block_of,
        final_sweep=final_sweep,
        ent_ptr=ent_ptr,
        ent_idx=ent_idx,
        diag_idx=diag_idx,
    )


def _subset_entries(sched: ElasticSchedule, rows):
    """Gather the strict entries of ``rows``: (ent_storage, local_row)."""
    ptr, pos = segment_positions(sched.ent_ptr, rows)
    return sched.ent_idx[pos], segment_ids_from_ptr(ptr)


def elastic_solve_part(
    F,
    rhs,
    sched: ElasticSchedule,
    *,
    tol: float = 0.0,
    max_sweeps: int = 128,
):
    """One stale-synchronous triangular sweep (lower or upper part).

    ``tol == 0`` runs ``sched.n_sweeps`` correction sweeps — the exact
    fixpoint, bit-identical to the reference sweeps.  ``tol > 0`` stops
    after the first sweep whose largest correction is at most
    ``tol * max(1, ||x||_inf)``.  Each block is one product over its
    active rows, each row accumulating its entries in ascending-entry
    order, the order of the reference row sweep.
    ``rhs`` must have shape ``(sched.n,)``; anything else raises
    ``ValueError``.
    """
    rhs = np.asarray(rhs, dtype=np.float64)
    n = sched.n
    if rhs.shape != (n,):
        raise ValueError(f"right-hand side of shape {rhs.shape} does not match {n} rows")
    x = np.zeros(n)
    data, indices = F.data, F.indices
    diag = data[sched.diag_idx] if sched.part == "upper" else None
    n_sweeps = min(sched.n_sweeps, int(max_sweeps)) if n else 0
    fs = sched.final_sweep
    lrows, level_ptr = sched.rows, sched.level_ptr
    for k in range(n_sweeps):
        active_mask = fs >= k
        n_active = int(np.count_nonzero(active_mask))
        if n_active == 0:
            break
        delta = 0.0
        with _spans.span("sched.elastic.sweep", cat="sched", sweep=k, active=n_active):
            for b in range(sched.n_blocks):
                lo, hi = sched.block_levels(b)
                rlo, rhi = int(level_ptr[lo]), int(level_ptr[hi])
                brows = lrows[rlo:rhi]
                brows = brows[active_mask[brows]]
                if brows.size == 0:
                    continue
                # only this block's rows are written while it runs, so every
                # read, stale or fresh, sees x as it stood at block entry
                ents, local = _subset_entries(sched, brows)
                prod = data[ents] * x[indices[ents]]
                new = rhs[brows] - np.bincount(local, weights=prod, minlength=brows.shape[0])
                if sched.part == "upper":
                    new = new / diag[brows]
                if tol > 0.0:
                    delta = max(delta, float(np.abs(new - x[brows]).max()))
                x[brows] = new
        _spans.instant(
            "sched.correction_sweep", cat="sched",
            sweep=k, active=n_active, part=sched.part,
        )
        if tol > 0.0 and delta <= tol * max(1.0, float(np.abs(x).max())):
            break
    return x


def elastic_solve(F, b, *, opts=None, analysis=None):
    """Numeric ``x = U⁻¹ L⁻¹ b`` on the combined factor ``F``, elastically.

    The lower then the upper sweep of :func:`elastic_solve_part`, on the
    schedules ``analysis`` (default: ``F``'s cached analysis) keeps for
    ``opts.staleness``.  Bit-identical to the apply of
    :func:`~repro.kernels.trisolve.factor_solver` at
    ``opts.elastic_tol == 0`` (the default).
    """
    opts = SchedOptions() if opts is None else opts
    if analysis is None:
        analysis = cached_analysis(F)
    tol, max_sweeps = opts.elastic_tol, opts.max_sweeps
    y = b
    for part in ("lower", "upper"):
        sched = analysis.elastic_schedule(part, staleness=opts.staleness)
        y = elastic_solve_part(F, y, sched, tol=tol, max_sweeps=max_sweeps)
    return y


def simulate_elastic(
    S,
    sched: ElasticSchedule,
    machine,
    flops,
    touched,
    *,
    start_time: float = 0.0,
    max_sweeps: int = 128,
    events=None,
):
    """Modelled time of the stale-synchronous sweep on a SimMachine.

    Sweep ``k`` processes every block that still has active rows
    (``final_sweep >= k``): the block's active rows are dealt
    round-robin across threads with *no* intra-block waits, then one
    barrier separates it from the next processed block.  ``events``
    (optional list) receives ``("sweep"|"block", sweep, block, clock)``
    tuples for the observability export.
    """
    p = machine.n_threads
    clock = float(start_time)
    n_sweeps = min(sched.n_sweeps, int(max_sweeps))
    fs = sched.final_sweep
    lrows, level_ptr = sched.rows, sched.level_ptr
    first = True
    for k in range(n_sweeps):
        active_mask = fs >= k
        if not active_mask.any():
            break
        for b in range(sched.n_blocks):
            lo, hi = sched.block_levels(b)
            brows = lrows[int(level_ptr[lo]) : int(level_ptr[hi])]
            brows = brows[active_mask[brows]]
            if brows.size == 0:
                continue
            if not first:
                clock += machine.barrier_cost()
            first = False
            thread = np.arange(brows.shape[0]) % p  # round-robin deal
            w = machine.work_time_batch(flops[brows], touched[brows], thread=thread)
            clock += float(np.bincount(thread, weights=w, minlength=p).max())
            if events is not None:
                events.append(("block", k, b, clock))
        if events is not None:
            events.append(("sweep", k, -1, clock))
    return clock
