"""Compressed Sparse Column (CSC) matrix.

The factorization itself runs on CSR, but the orderings (Dulmage—
Mendelsohn matching, minimum degree) and some analyses need fast column
access; CSC provides it.  Structurally a CSC matrix is the CSR storage of
the transpose, and the implementation leans on that duality.
"""

from __future__ import annotations

import numpy as np

from .segscan import sort_segments

__all__ = ["CSCMatrix"]


class CSCMatrix:
    """Sparse matrix in compressed sparse column format.

    ``indptr`` has length ``n_cols + 1``; ``indices`` holds row indices
    sorted within each column.
    """

    def __init__(self, n_rows, n_cols, indptr, indices, data=None, *, sort=True, check=True):
        self.n_rows = int(n_rows)
        self.n_cols = int(n_cols)
        self.indptr = np.asarray(indptr, dtype=np.int64)
        self.indices = np.asarray(indices, dtype=np.int64)
        if data is None:
            data = np.ones(self.indices.shape[0], dtype=np.float64)
        self.data = np.asarray(data, dtype=np.float64)
        if check:
            self._validate()
        if sort:
            self.sort_indices()

    def _validate(self):
        if self.indptr.shape[0] != self.n_cols + 1:
            raise ValueError("indptr length must be n_cols + 1")
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("bad indptr endpoints")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be nondecreasing")
        if self.indices.shape[0] != self.data.shape[0]:
            raise ValueError("indices and data lengths disagree")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= self.n_rows):
            raise ValueError("row index out of range")

    def sort_indices(self):
        """Sort row indices (and values) within every column, in place."""
        sort_segments(self.indptr, self.indices, self.data)
        return self

    @property
    def shape(self):
        return (self.n_rows, self.n_cols)

    @property
    def nnz(self):
        return int(self.indptr[-1])

    def col(self, c):
        """Return ``(rows, vals)`` views of column ``c``."""
        lo, hi = self.indptr[c], self.indptr[c + 1]
        return self.indices[lo:hi], self.data[lo:hi]

    def col_nnz(self):
        return np.diff(self.indptr)

    def copy(self):
        return CSCMatrix(
            self.n_rows,
            self.n_cols,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sort=False,
            check=False,
        )

    def transpose(self):
        """Transpose is free: reinterpret the same storage as CSR→CSC swap."""
        from .csr import CSRMatrix

        return CSRMatrix(
            self.n_cols,
            self.n_rows,
            self.indptr.copy(),
            self.indices.copy(),
            self.data.copy(),
            sort=False,
            check=False,
        )

    def tocsr(self):
        from .convert import csc_to_csr

        return csc_to_csr(self)

    def to_dense(self):
        out = np.zeros(self.shape)
        for c in range(self.n_cols):
            rows, vals = self.col(c)
            out[rows, c] = vals
        return out

    def __repr__(self):
        return f"CSCMatrix(shape={self.shape}, nnz={self.nnz})"
