"""Factorization diagnostics: quality, conditioning, soft-error checks.

§III motivates up-looking LU partly because it "allows for local
estimates of resilience from soft-errors and the convergence rate":
each row of the factor is a pure function of the rows it depends on, so
a row can be *locally* re-derived and checked, and per-row quantities
bound how good the preconditioner will be.  This module provides:

* :func:`row_residual_norms` — per-row ‖(LU − A)[i, :]‖, the local
  convergence-rate estimate (zero on the pattern for exact ILU; grows
  with dropping);
* :func:`pivot_growth` — max |factor| / max |A| and the smallest pivot,
  the standard breakdown early-warnings for no-pivoting factorizations;
* :func:`condest_preconditioned` — a cheap randomized estimate of
  ‖M⁻¹A − I‖, predicting Krylov iteration counts;
* :func:`verify_row` / :func:`scan_for_corruption` — recompute a row
  from its dependencies and compare against the stored values, the
  soft-error detector the up-looking structure enables.
"""

from __future__ import annotations

import numpy as np

from ..kernels import cached_analysis
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import split_lu
from .iluk import factor_row

__all__ = [
    "row_residual_norms",
    "pivot_growth",
    "condest_preconditioned",
    "verify_row",
    "scan_for_corruption",
]


def row_residual_norms(A: CSRMatrix, F: CSRMatrix, *, on_pattern_only=True):
    """Per-row 2-norms of (LU − A), the local quality estimate.

    ``on_pattern_only`` restricts the residual to the stored pattern of
    A (where exact ILU makes it identically zero); the full residual
    includes the fill the incomplete factorization discarded.
    """
    L, U = split_lu(F)
    Ld, Ud, Ad = L.to_dense(), U.to_dense(), A.to_dense()
    R = Ld @ Ud - Ad
    if on_pattern_only:
        R = np.where(Ad != 0, R, 0.0)
    return np.sqrt(np.sum(R * R, axis=1))


def pivot_growth(A: CSRMatrix, F: CSRMatrix, *, tiny_tol=None):
    """Growth statistics of the factorization.

    Returns a dict with the element growth factor ``max|F| / max|A|``,
    the smallest ``|pivot|``, the pivot spread
    ``max|pivot| / min|pivot|``, and ``n_tiny_pivots`` — large growth,
    tiny pivots or non-finite pivots flag the no-pivoting factorization
    as unreliable before a solve is attempted.

    Robustness contract: every statistic is well defined for empty,
    zero, negative and non-finite diagonals.  ``min_pivot`` and
    ``pivot_spread`` are computed over ``|pivot|`` (sign discarded) and
    ignore non-finite entries, which are counted separately in
    ``n_nonfinite_pivots``; a zero or absent smallest pivot makes the
    spread ``inf``.  ``tiny_tol`` sets the threshold for
    ``n_tiny_pivots`` (default: ``1e-12 · max|F|``).
    """
    d = np.abs(np.asarray(F.diagonal(), dtype=np.float64))
    max_a = float(np.abs(A.data).max()) if A.nnz else 0.0
    with np.errstate(invalid="ignore"):
        max_f = float(np.nanmax(np.abs(F.data))) if F.nnz else 0.0
    if not np.isfinite(max_f):
        max_f = np.inf
    finite = d[np.isfinite(d)]
    n_nonfinite = int(d.size - finite.size)
    min_pivot = float(finite.min()) if finite.size else 0.0
    max_pivot = float(finite.max()) if finite.size else 0.0
    if tiny_tol is None:
        tiny_tol = 1e-12 * max_f if np.isfinite(max_f) else 0.0
    n_tiny = int(np.count_nonzero(finite <= tiny_tol)) + n_nonfinite
    if finite.size and min_pivot > 0.0:
        spread = max_pivot / min_pivot
    else:
        spread = np.inf
    if max_a > 0.0:
        growth = max_f / max_a
    else:
        growth = 0.0 if max_f == 0.0 else np.inf
    return {
        "growth": growth,
        "min_pivot": min_pivot,
        "pivot_spread": float(spread),
        "n_tiny_pivots": n_tiny,
        "n_nonfinite_pivots": n_nonfinite,
    }


def condest_preconditioned(A: CSRMatrix, apply_M, *, samples=8, seed=0):
    """Randomized estimate of ‖M⁻¹A − I‖_F / √n.

    Probes with Gaussian vectors: E‖(M⁻¹A − I)z‖² = ‖M⁻¹A − I‖_F², so
    the root-mean of a few probes estimates the deviation of the
    preconditioned operator from the identity — small values predict
    fast Krylov convergence.
    """
    rng = np.random.default_rng(seed)
    n = A.n_rows
    acc = 0.0
    for _ in range(samples):
        z = rng.standard_normal(n)
        w = apply_M(A.matvec(z)) - z
        acc += float(w @ w) / float(z @ z)
    return float(np.sqrt(acc / samples))


def verify_row(F: CSRMatrix, A: CSRMatrix, r, *, atol=0.0, rtol=1e-12):
    """Recompute row ``r`` of the factor from its dependencies.

    Up-looking structure: row r of F is a deterministic function of
    A[r, :] and the *already stored* earlier rows of F, so it can be
    re-derived in O(row work) without refactoring anything else.
    Returns True when the stored row matches the recomputation — a
    mismatch means the stored row was corrupted after it was computed
    (e.g. by a soft error).
    """
    scratch = F.copy()
    # reset row r to A's values on the pattern
    lo, hi = int(F.indptr[r]), int(F.indptr[r + 1])
    cols = F.indices[lo:hi]
    a_cols, a_vals = A.row(r)
    scratch.data[lo:hi] = 0.0
    pos = np.searchsorted(cols, a_cols)
    ok = (pos < cols.shape[0]) & (cols[np.minimum(pos, cols.shape[0] - 1)] == a_cols)
    scratch.data[lo + pos[ok]] = a_vals[ok]
    diag_pos = cached_analysis(scratch).diag_pos()
    factor_row(scratch, r, diag_pos)
    return np.allclose(scratch.data[lo:hi], F.data[lo:hi], atol=atol, rtol=rtol)


def scan_for_corruption(F: CSRMatrix, A: CSRMatrix, *, rtol=1e-12):
    """Verify every row; return the list of rows that fail.

    Note the directionality: a flipped bit in row r makes row r fail its
    own check, and may also make *dependent* rows fail (they were
    computed from good values, but the recomputation now reads the
    corrupted row).  The first failing row localizes the error.
    """
    bad = []
    for r in range(F.n_rows):
        if not verify_row(F, A, r, rtol=rtol):
            bad.append(r)
    return bad
