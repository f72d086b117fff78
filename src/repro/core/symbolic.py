"""Symbolic factorization: predetermine the ILU sparsity pattern.

Javelin "depends on predetermining the sparsity pattern and applying an
up-looking LU algorithm to the pattern" (§III).  Two pattern choices:

* ``ilu0_pattern`` — ILU(0): the pattern of A itself (with the diagonal
  made structurally present; Javelin does not pivot, so a zero-free
  diagonal is required);
* ``iluk_pattern`` — ILU(k): classical level-of-fill.  Entry (i, j)
  enters the pattern when its fill level ≤ k, with original entries at
  level 0 and a fill entry created through pivot column c getting
  ``lev(i,c) + lev(c,j) + 1``.

The module also derives the *cost model* for the machine simulator:
given the pattern, :func:`row_factor_costs` counts per row the exact
flops (one division per strict-lower entry, one multiply-subtract per
realized update) and CSR entries streamed by the up-looking kernel, and
:func:`row_solve_costs` does the same for a triangular-solve sweep.
These counts are deterministic functions of the pattern, so simulated
times are reproducible.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..kernels.plans import slot_updates
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import add_diagonal_pattern, has_full_diagonal
from ..sparse.segscan import segment_ids_from_ptr

__all__ = [
    "ilu0_pattern",
    "iluk_pattern",
    "row_factor_costs",
    "row_factor_costs_split",
    "row_solve_costs",
]


def ilu0_pattern(A: CSRMatrix) -> CSRMatrix:
    """The ILU(0) pattern: pattern of A with a structurally full diagonal."""
    if A.n_rows != A.n_cols:
        raise ValueError("ILU requires a square matrix")
    if has_full_diagonal(A):
        return A.pattern_copy()
    return add_diagonal_pattern(A, value=0.0).pattern_copy()


def iluk_pattern(A: CSRMatrix, k: int) -> CSRMatrix:
    """ILU(k) level-of-fill pattern.

    Row-merge formulation: process rows top to bottom; row i starts from
    the original entries (level 0) and, scanning its current strict-lower
    entries c in ascending order, merges the already-computed upper
    pattern of row c with levels ``lev(i,c) + lev(c,j) + 1``, keeping
    entries with level ≤ k.  For k = 0 this reduces to the pattern of A.

    Returns a pattern CSR whose values hold the fill level of each entry
    (0 for original entries), which tests use to check monotonicity.
    """
    if k < 0:
        raise ValueError("fill level k must be >= 0")
    if A.n_rows != A.n_cols:
        raise ValueError("ILU requires a square matrix")
    n = A.n_rows
    base = add_diagonal_pattern(A, value=0.0)
    # per-row results, appended in row order: sorted column arrays and
    # parallel level arrays
    rows_cols: list[np.ndarray] = []
    rows_levs: list[np.ndarray] = []
    INF = np.iinfo(np.int64).max
    lev = np.full(n, INF, dtype=np.int64)  # one workspace; a row resets what it touched

    for i in range(n):
        cols0 = base.indices[base.indptr[i] : base.indptr[i + 1]]
        lev[cols0] = 0
        fill = []  # columns the merges give their first level ≤ k
        # worklist of strict-lower columns to scan, in ascending order.
        # New fill with column < i may itself generate fill, so we use a
        # sorted frontier over the current pattern.
        heap = [int(c) for c in cols0 if c < i]
        heapq.heapify(heap)
        while heap:  # every queued column has a level ≤ k
            c = heapq.heappop(heap)
            lic = lev[c]
            # rows are finished in ascending order and the heap only ever
            # holds columns < i, so row c is already filled
            cc = rows_cols[c]
            ll = rows_levs[c]
            # merge the strict-upper part of row c
            upper_mask = cc > c
            for j, ljc in zip(cc[upper_mask], ll[upper_mask]):
                cand = lic + int(ljc) + 1
                if cand <= k and cand < lev[j]:
                    if lev[j] == INF:  # new fill, queued once
                        fill.append(j)
                        if j < i:
                            heapq.heappush(heap, int(j))
                    lev[j] = cand
        cols = np.unique(np.concatenate((cols0, np.array(fill, dtype=np.int64))))
        rows_cols.append(cols)
        rows_levs.append(lev[cols])
        lev[cols] = INF

    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([c.shape[0] for c in rows_cols], out=indptr[1:])
    indices = np.concatenate(rows_cols)
    levels = np.concatenate(rows_levs).astype(np.float64)
    return CSRMatrix(n, n, indptr, indices, levels, sort=False, check=False)


def row_factor_costs(S: CSRMatrix):
    """Per-row (flops, nnz_touched) of the up-looking kernel on pattern S.

    For row i the kernel (Fig. 1) performs, for each strict-lower entry
    c: one division, then one fused multiply-subtract per upper entry of
    row c that also lies in row i's pattern.  Streamed data: row i's own
    entries plus each visited pivot row's upper part.

    Returns two float arrays of length n: the sum of the two phases of
    :func:`row_factor_costs_split` at ``m = 0``.  The counts are
    integer-valued floats, so the sums are exact.
    """
    (fl, tl), (fc, tc) = row_factor_costs_split(S, 0)
    return fl + fc, tl + tc


def row_factor_costs_split(S: CSRMatrix, m):
    """Per-row costs split at column boundary ``m`` (for the lower stage).

    For each row returns the (flops, touched) charged while eliminating
    strict-lower columns ``c < m`` (Even-Rows' FACTOR_L phase) and while
    eliminating columns ``m ≤ c < row`` (the corner FACTOR_LU phase).
    Summing the two parts reproduces :func:`row_factor_costs`.

    Each slot of :func:`~repro.kernels.plans.slot_updates` costs
    ``1 + 2·hits`` flops and touches ``1 + span`` entries (its pivot
    row's upper part); the row's own streaming is charged once, to the
    first phase.  A row without a stored diagonal raises ``ValueError``.
    """
    n = S.n_rows
    ex = slot_updates(S)
    f = 1.0 + 2.0 * ex.hits_per_slot()
    t = 1.0 + np.diff(ex.cand_ptr)
    first = ex.col < m

    def per_row(mask, w):  # float even without slots, where bincount gives ints
        return np.bincount(ex.row[mask], weights=w[mask], minlength=n).astype(np.float64)

    own = np.diff(S.indptr)
    return (per_row(first, f), per_row(first, t) + own), (per_row(~first, f), per_row(~first, t))


def row_solve_costs(S: CSRMatrix, part="lower"):
    """Per-row (flops, nnz_touched) of one triangular-solve sweep.

    ``part`` selects which entries the sweep reads: "lower" (forward
    solve with unit diagonal) or "upper" (backward solve including the
    diagonal division).
    """
    if part not in ("lower", "upper"):
        raise ValueError("part must be 'lower' or 'upper'")
    row_of = segment_ids_from_ptr(S.indptr)
    strict = S.indices < row_of if part == "lower" else S.indices > row_of
    cnt = np.bincount(row_of[strict], minlength=S.n_rows)
    if part == "lower":
        return 2.0 * cnt, cnt + 2.0  # entries + rhs + solution slot
    return 2.0 * cnt + 1.0, cnt + 3.0  # updates + diagonal division
