"""Up-looking incomplete LU: the row reference and the compiled factor.

This is Fig. 1 of the paper verbatim: rows top to bottom; within row
``i`` scan the strict-lower pattern columns ``c`` in ascending order,
divide by the pivot ``a_cc``, then apply multiply-subtract updates to
the positions of row ``i`` that also appear in the upper part of row
``c``.  L and U are stored together in one CSR matrix (unit diagonal of
L implicit).

:func:`factor_row` is the row-elimination kernel: the sequential
reference and both threaded executors call it.  Every parallel
execution order in the framework (upper stage p2p/barrier, Even-Rows,
Segmented-Rows, the threaded runtime) must reproduce this factorization
*exactly* — the dependency structure makes traditional ILU
deterministic, which is the robustness property the paper contrasts
with the fine-grained asynchronous method of Chow & Patel.  Tests
assert bit-for-bit agreement.

:func:`ilu_factor_sequential` is the :func:`factor_row` loop with the
ILU(k, τ) drop hook, the reference.  :func:`ilu_factor`, the production
kernel behind :meth:`~repro.core.javelin.JavelinILU.factor`, runs the
same loop as one call into compiled C (``ilu_factor`` in
``kernels/level_sweep.c``, loaded by :mod:`repro.kernels.native`).  The
C loop finds row ``i``'s slot of a column through a column→slot mark
instead of a search, and otherwise does the reference's operations in
the reference's order, so the bits are the same, and a failed pivot is
the reference's first failure.  Without a C compiler
:func:`ilu_factor` is :func:`ilu_factor_sequential`.
"""

from __future__ import annotations

import numpy as np

from ..kernels import cached_analysis
from ..kernels.hook import kernel
from ..kernels.native import compiled_factor
from ..sparse.csr import CSRMatrix
from .breakdown import FactorizationBreakdown, classify_pivot
from .symbolic import ilu0_pattern, iluk_pattern

__all__ = [
    "ilu_factor",
    "scatter_slots",
    "ilu_factor_sequential",
    "ilu0_factor",
    "PivotBreakdownError",
    "factor_row",
]


class PivotBreakdownError(FactorizationBreakdown, ZeroDivisionError):
    """A structurally present pivot evaluated to (near) zero or non-finite.

    Javelin does not pivot (§III), so factorization must abort; the
    paper's WSMP comparison marks such failures with an 'x'.  The
    structured fields (``row``, ``value``, ``kind``) feed the retry
    driver in :mod:`repro.resilience`.
    """

    def __init__(self, row, value, kind="zero"):
        super().__init__(row, value, kind=kind)


def scatter_slots(S: CSRMatrix, A: CSRMatrix):
    """The storage slot in ``S`` of every entry of ``A`` (``S``'s pattern ⊇ ``A``'s).

    One whole-matrix ``searchsorted`` over global ``(row, col)`` keys —
    rows ascend and columns ascend within a row, so the keys are sorted
    and every entry of A locates its slot in S in a single pass.  A row
    of S with unsorted or repeated columns, or an entry of A outside S,
    raises ``ValueError``.  The slots depend on the two patterns only,
    so a caller that refactors one pattern computes them once.
    """
    ncol = np.int64(S.n_cols)
    f_keys = (
        np.repeat(np.arange(S.n_rows, dtype=np.int64), np.diff(S.indptr)) * ncol + S.indices
    )
    unsorted = np.flatnonzero(f_keys[1:] <= f_keys[:-1])
    if unsorted.size:
        r = int(f_keys[unsorted[0] + 1] // ncol)
        raise ValueError(f"pattern S row {r} is not sorted or repeats a column")
    if not A.nnz:
        return np.empty(0, dtype=np.int64)
    a_keys = np.repeat(np.arange(A.n_rows, dtype=np.int64), np.diff(A.indptr)) * ncol + A.indices
    pos = np.searchsorted(f_keys, a_keys)
    nnz_f = f_keys.shape[0]
    bad = (pos >= nnz_f) | (f_keys[np.minimum(pos, nnz_f - 1)] != a_keys)
    if np.any(bad):
        k = int(np.flatnonzero(bad)[0])
        r = int(np.searchsorted(A.indptr, k, side="right")) - 1
        raise ValueError(f"pattern S does not contain all of A's row {r}")
    return pos


def _scatter(S: CSRMatrix, A: CSRMatrix, slots):
    """A copy of S holding A's values at ``slots``, zero elsewhere."""
    F = S.pattern_copy()
    F.data[:] = 0.0
    F.data[slots] = A.data
    return F


def _scatter_values(S: CSRMatrix, A: CSRMatrix):
    """Copy A's values into the (superset) pattern S; missing → 0.

    The slots come from :func:`scatter_slots`, which raises on an
    unsorted row of S or an entry of A that S lacks.
    """
    return _scatter(S, A, scatter_slots(S, A))


def factor_row(F: CSRMatrix, i, diag_pos, pivot_tol=0.0, *, window=None):
    """Factor row ``i`` of F in place (all pivot rows it reads must be done).

    ``diag_pos[r]`` is the storage index of ``F[r, r]``.  This is the
    one row-elimination kernel every executor schedules: the sequential
    reference, the staged factor and the threaded runtime all call it.
    ``window = (col_lo, col_hi)`` eliminates only the strict-lower
    columns in ``[col_lo, col_hi)`` — Even-Rows' split of a lower row
    into FACTOR_L (``(0, m)``) and its corner part (``(m, i)``); the
    default covers every strict-lower column.  ``pivot_tol`` is the
    pivot floor: a pivot with ``|p| <= pivot_tol``, or a non-finite
    pivot, raises :class:`PivotBreakdownError` instead of dividing
    through and poisoning every dependent row.
    """
    indptr, indices, data = F.indptr, F.indices, F.data
    lo, hi = int(indptr[i]), int(indptr[i + 1])
    cols = indices[lo:hi]
    ncols = cols.shape[0]
    start, stop = lo, i
    if window is not None:
        col_lo, col_hi = window
        start = lo + int(np.searchsorted(cols, col_lo))
        stop = min(i, col_hi)
    inf = float("inf")
    for kk in range(start, hi):
        c = int(indices[kk])
        if c >= stop:
            break
        pivot = data[diag_pos[c]]
        # one comparison covers zero, tiny AND NaN/Inf: abs(NaN) > tol
        # is False and abs(Inf) < inf is False, so both fall through
        if not (pivot_tol < abs(pivot) < inf):
            raise PivotBreakdownError(c, pivot, kind=classify_pivot(pivot, pivot_tol))
        lic = data[kk] / pivot
        data[kk] = lic
        # update row i positions matching the upper part of row c —
        # batched: one searchsorted over the pivot row's upper columns
        # (same element order as the scalar loop, so bit-identical)
        c_lo, c_hi = int(indptr[c]), int(indptr[c + 1])
        u_cols = indices[c_lo:c_hi]
        u_start = int(np.searchsorted(u_cols, c + 1))
        if c_lo + u_start == c_hi:
            continue
        u_cols = u_cols[u_start:]
        pos = np.searchsorted(cols, u_cols)
        pos[pos == ncols] = ncols - 1
        hit = cols[pos] == u_cols
        if np.any(hit):
            data[lo + pos[hit]] -= lic * data[c_lo + u_start : c_hi][hit]


def drop_row_fixed_pattern(F: CSRMatrix, r, diag_pos, threshold, *, modified=False):
    """Numerical dropping with a fixed pattern, applied at row completion.

    Entries of row ``r`` with ``|v| < threshold`` are zeroed (the storage
    slot stays, so the schedule and the stri structure are untouched —
    the way Javelin supports ILU(k, τ) without re-planning).  With
    ``modified`` the dropped mass is added to the diagonal (MILU
    compensation), preserving the row sum.  The diagonal itself is never
    dropped.  Returns the total mass dropped.
    """
    lo, hi = int(F.indptr[r]), int(F.indptr[r + 1])
    dpos = int(diag_pos[r])
    dropped = 0.0
    for kk in range(lo, hi):
        if kk == dpos:
            continue
        v = F.data[kk]
        if v != 0.0 and abs(v) < threshold:
            dropped += v
            F.data[kk] = 0.0
    if modified and dropped != 0.0:
        F.data[dpos] += dropped
    return dropped


def ilu_factor_sequential(
    A: CSRMatrix, S: CSRMatrix | None = None, *, pivot_tol=0.0, drop_threshold=None,
    modified=False,
):
    """Up-looking ILU of A on pattern S (default: ILU(0) pattern).

    Returns the factored CSR matrix holding L (strictly below the
    diagonal, unit diagonal implicit) and U (diagonal and above): one
    :func:`factor_row` per row, then its drop hook.  This is the
    reference every other factor path is tested against.
    ``drop_threshold[r]`` (optional) is row ``r``'s ILU(k, τ) threshold
    for :func:`drop_row_fixed_pattern`, ``modified`` its MILU switch.
    """
    if S is None:
        S = ilu0_pattern(A)
    F = _scatter_values(S, A)
    return _factor_rows(F, cached_analysis(F), pivot_tol, drop_threshold, modified)


def _factor_rows(F, analysis, pivot_tol, drop_threshold, modified):
    """The reference's row loop on the scattered values ``F``, in place."""
    diag_pos = analysis.diag_pos()
    for r in range(F.n_rows):
        factor_row(F, r, diag_pos, pivot_tol=pivot_tol)
        if drop_threshold is not None:
            drop_row_fixed_pattern(F, r, diag_pos, drop_threshold[r], modified=modified)
    return F


@kernel
def ilu_factor(A, S, *, pivot_tol=0.0, drop_threshold=None, modified=False, analysis=None,
               slots=None):
    """:func:`ilu_factor_sequential`'s factor, in one call of the compiled row loop.

    A failed pivot raises the reference's :class:`PivotBreakdownError`
    (row, value, kind).  ``analysis`` is the
    :class:`~repro.kernels.cache.SymbolicAnalysis` of ``S``'s pattern,
    when the caller holds it; by default it is looked up.  ``slots`` is
    :func:`scatter_slots` ``(S, A)``, when the caller holds it (a
    value-only refactor of one pattern): ``A``'s values then reach the
    factor in one scatter, without the search and the row checks that
    made the slots.  Without a C compiler this is
    :func:`ilu_factor_sequential`.
    """
    # the C loop checks no bounds: rows sorted, one diagonal slot and one threshold per row
    if slots is None:
        F = _scatter_values(S, A)  # raises on unsorted rows
    elif np.shape(slots) != (A.nnz,):
        raise ValueError(f"slots has shape {np.shape(slots)}, want ({A.nnz},)")
    else:
        F = _scatter(S, A, slots)
    if analysis is None:
        analysis = cached_analysis(F)
    elif (analysis.n_rows, analysis.nnz) != (F.n_rows, F.nnz):
        raise ValueError("analysis is not of the pattern S")
    run = compiled_factor()
    if run is None:
        return _factor_rows(F, analysis, pivot_tol, drop_threshold, modified)
    diag_pos = analysis.diag_pos()  # n_rows slots below nnz; raises on a missing diagonal
    thresh = None
    if drop_threshold is not None:
        thresh = np.ascontiguousarray(drop_threshold, dtype=np.float64)
        if thresh.shape != (F.n_rows,):
            raise ValueError(f"drop_threshold has shape {thresh.shape}, want ({F.n_rows},)")
    mark = np.full(F.n_cols, -1, dtype=np.int64)  # per call: concurrent factors are safe
    bad = run(F.n_rows, F.indptr.ctypes.data, F.indices.ctypes.data, diag_pos.ctypes.data,
              F.data.ctypes.data, float(pivot_tol), None if thresh is None else thresh.ctypes.data,
              int(bool(modified)), mark.ctypes.data)
    if bad >= 0:
        c = int(F.indices[bad])
        pivot = F.data[diag_pos[c]]
        raise PivotBreakdownError(c, pivot, kind=classify_pivot(pivot, pivot_tol))
    return F


def ilu0_factor(A: CSRMatrix, *, pivot_tol=0.0):
    """ILU(0): factor on the pattern of A itself."""
    return ilu_factor_sequential(A, ilu0_pattern(A), pivot_tol=pivot_tol)


def iluk_factor(A: CSRMatrix, k: int, *, pivot_tol=0.0):
    """ILU(k): symbolic level-of-fill pattern, then numeric up-looking."""
    S = iluk_pattern(A, k)
    return ilu_factor_sequential(A, S, pivot_tol=pivot_tol)
