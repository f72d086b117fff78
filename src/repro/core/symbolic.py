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

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.pattern import add_diagonal_pattern, has_full_diagonal

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
    # per-row results: sorted column arrays and parallel level arrays
    rows_cols: list[np.ndarray | None] = [None] * n
    rows_levs: list[np.ndarray | None] = [None] * n
    INF = np.iinfo(np.int64).max

    for i in range(n):
        cols0 = base.indices[base.indptr[i] : base.indptr[i + 1]]
        lev = np.full(n, INF, dtype=np.int64)  # dense workspace, reset per row
        lev[cols0] = 0
        # worklist of strict-lower columns to scan, in ascending order.
        # New fill with column < i may itself generate fill, so we use a
        # sorted frontier over the current pattern.
        import heapq

        heap = [int(c) for c in cols0 if c < i]
        heapq.heapify(heap)
        seen = set(heap)
        while heap:
            c = heapq.heappop(heap)
            lic = lev[c]
            if lic > k:
                continue
            cc = rows_cols[c]
            ll = rows_levs[c]
            # rows are finished in ascending order and the heap only ever
            # holds columns < i, so row c is already filled
            assert cc is not None and ll is not None
            # merge the strict-upper part of row c
            upper_mask = cc > c
            for j, ljc in zip(cc[upper_mask], ll[upper_mask]):
                cand = lic + int(ljc) + 1
                if cand < lev[j]:
                    if cand <= k:
                        lev[j] = cand
                        if j < i and j not in seen:
                            heapq.heappush(heap, int(j))
                            seen.add(int(j))
        cols = np.nonzero(lev <= k)[0]
        rows_cols[i] = cols.astype(np.int64)
        rows_levs[i] = lev[cols].copy()

    # every slot was filled by the loop above; narrow away the Nones once
    filled_cols = [c for c in rows_cols if c is not None]
    filled_levs = [lv for lv in rows_levs if lv is not None]
    assert len(filled_cols) == n and len(filled_levs) == n
    indptr = np.zeros(n + 1, dtype=np.int64)
    for i in range(n):
        indptr[i + 1] = indptr[i] + filled_cols[i].shape[0]
    indices = np.concatenate(filled_cols)
    levels = np.concatenate(filled_levs).astype(np.float64)
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
    """
    n = S.n_rows
    fl = np.zeros(n)
    tl = np.zeros(n)
    fc = np.zeros(n)
    tc = np.zeros(n)
    indptr, indices = S.indptr, S.indices
    for i in range(n):
        cols = indices[indptr[i] : indptr[i + 1]]
        own = float(cols.shape[0])
        nci = cols.shape[0]
        for c in cols[cols < i]:
            f = 1.0
            t = 1.0
            lo, hi = indptr[c], indptr[c + 1]
            uc = indices[lo:hi]
            uc = uc[uc > c]
            t += uc.shape[0]
            if uc.shape[0]:
                pos = np.searchsorted(cols, uc)
                pos[pos == nci] = nci - 1
                f += 2.0 * int(np.count_nonzero(cols[pos] == uc))
            if c >= m:
                fc[i] += f
                tc[i] += t
            else:
                fl[i] += f
                tl[i] += t
        # charge the row's own streaming once, to the first phase that runs
        tl[i] += own
    return (fl, tl), (fc, tc)


def row_solve_costs(S: CSRMatrix, part="lower"):
    """Per-row (flops, nnz_touched) of one triangular-solve sweep.

    ``part`` selects which entries the sweep reads: "lower" (forward
    solve with unit diagonal) or "upper" (backward solve including the
    diagonal division).
    """
    n = S.n_rows
    flops = np.zeros(n)
    touched = np.zeros(n)
    for r in range(n):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        if part == "lower":
            m = int(np.count_nonzero(cols < r))
            flops[r] = 2.0 * m
            touched[r] = m + 2  # entries + rhs + solution slot
        elif part == "upper":
            m = int(np.count_nonzero(cols > r))
            flops[r] = 2.0 * m + 1.0  # updates + diagonal division
            touched[r] = m + 3
        else:
            raise ValueError("part must be 'lower' or 'upper'")
    return flops, touched
