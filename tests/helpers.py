"""Test helpers importable from any test module (see conftest.py)."""

import numpy as np

from repro.sparse import from_dense
from repro.sparse.csr import CSRMatrix


def random_sparse_dense(n, density=0.15, seed=0, *, dominance=2.0, sym_pattern=False):
    """Dense array with a sparse pattern, full diagonal, diagonally dominant."""
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    if sym_pattern:
        mask = (D != 0) | (D.T != 0)
        D = np.where(mask & (D == 0), D.T, D)
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + dominance)
    return D


def random_csr(n, density=0.15, seed=0, **kw) -> CSRMatrix:
    return from_dense(random_sparse_dense(n, density, seed, **kw))


def dense_ilu0(D, P=None, threshold=None, modified=False):
    """Dense reference ILU: elimination restricted to the pattern ``P``.

    ``P`` defaults to the nonzeros of D.  With ``threshold`` (one value
    per row), each finished row drops its off-diagonal entries below
    it, in column order, adding the dropped mass to the diagonal when
    ``modified`` — ILU(k, τ) with a fixed pattern.  Each entry takes its
    updates in the same order as ``factor_row``, so the result matches
    the sparse factor bit for bit.
    """
    n = D.shape[0]
    if P is None:
        P = D != 0
    F = D.copy()
    for i in range(n):
        for c in range(i):
            if P[i, c]:
                F[i, c] /= F[c, c]
                for j in range(c + 1, n):
                    if P[c, j] and P[i, j]:
                        F[i, j] -= F[i, c] * F[c, j]
        if threshold is not None:
            dropped = 0.0
            for j in range(n):
                v = F[i, j]
                if j != i and P[i, j] and v != 0.0 and abs(v) < threshold[i]:
                    dropped += v
                    F[i, j] = 0.0
            if modified and dropped != 0.0:
                F[i, i] += dropped
    return F


def dense_reference(ilu):
    """:func:`dense_ilu0` of a set-up ``JavelinILU``, gathered onto ``S_perm``'s storage."""
    S = ilu.S_perm
    P = S.pattern_copy()
    P.data[:] = 1.0
    F = dense_ilu0(
        ilu.A_perm.to_dense(),
        P.to_dense() != 0,
        ilu.drop_threshold,
        ilu.options.modified,
    )
    rows = np.repeat(np.arange(S.n_rows), np.diff(S.indptr))
    return F[rows, S.indices]


def has_sorted_indices(A):
    """True when every row's column indices are nondecreasing."""
    for r in range(A.n_rows):
        seg = A.indices[A.indptr[r] : A.indptr[r + 1]]
        if np.any(seg[1:] < seg[:-1]):
            return False
    return True


def has_duplicates(A):
    """True when some row stores the same column twice."""
    for r in range(A.n_rows):
        seg = A.indices[A.indptr[r] : A.indptr[r + 1]]
        if np.unique(seg).shape[0] != seg.shape[0]:
            return True
    return False


def lower_only_pivot(ilu):
    """An upper row of a set-up ``JavelinILU`` whose pivot only the lower stage reads.

    The row (permuted numbering) has no strict-lower entries, so its
    factored diagonal is the input's diagonal value; only lower-stage
    rows ``>= ilu.m`` have it as a column.
    """
    S, m = ilu.S_perm, ilu.m
    for c in range(m):
        if np.any(S.indices[S.indptr[c] : S.indptr[c + 1]] < c):
            continue
        users = [
            r
            for r in range(c + 1, S.n_rows)
            if np.any(S.indices[S.indptr[r] : S.indptr[r + 1]] == c)
        ]
        if users and min(users) >= m:
            return c
    raise ValueError("no upper row is a lower-stage-only pivot")


def with_diagonal(A, r, value):
    """A copy of ``A`` whose stored entry ``A[r, r]`` is ``value`` (NaN kept)."""
    B = A.copy()
    lo, hi = B.indptr[r], B.indptr[r + 1]
    B.data[lo + int(np.searchsorted(B.indices[lo:hi], r))] = value
    return B


def on_pattern(A, indptr, indices):
    """A copy of ``A``'s values on the given pattern arrays (shared, not copied)."""
    return CSRMatrix(A.n_rows, A.n_cols, indptr, indices, A.data.copy(), sort=False, check=False)
