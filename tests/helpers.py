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


def dense_ilu0(D):
    """Dense reference ILU(0): elimination restricted to the pattern of D."""
    n = D.shape[0]
    P = D != 0
    F = D.copy()
    for i in range(n):
        for c in range(i):
            if P[i, c]:
                F[i, c] /= F[c, c]
                for j in range(c + 1, n):
                    if P[c, j] and P[i, j]:
                        F[i, j] -= F[i, c] * F[c, j]
    return F


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
