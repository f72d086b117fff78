"""Sparsity-pattern algebra.

Javelin's scheduling is entirely structural: the level sets are computed
on the pattern of ``lower(A)`` or ``lower(A + A^T)`` (§III), the choice
between them gates whether the Segmented-Rows lower stage is legal
(§III-B), and Table I reports whether the symbolic pattern is symmetric.
This module provides those pattern operations on CSR matrices.
"""

from __future__ import annotations

import numpy as np

from .csr import CSRMatrix
from .segscan import ptr_from_segment_ids, segment_ids_from_ptr

__all__ = [
    "lower_pattern",
    "upper_pattern",
    "strict_lower_pattern",
    "strict_upper_pattern",
    "symmetrize_pattern",
    "pattern_union",
    "is_pattern_symmetric",
    "has_full_diagonal",
    "split_lu",
    "add_diagonal_pattern",
]


def _triangular(csr: CSRMatrix, keep) -> CSRMatrix:
    """Filter stored entries by a predicate ``keep(rows, cols) -> bool mask``."""
    return csr.prune(keep(segment_ids_from_ptr(csr.indptr), csr.indices))


def lower_pattern(csr: CSRMatrix) -> CSRMatrix:
    """``lower(A)``: entries with col ≤ row (diagonal included)."""
    return _triangular(csr, lambda r, c: c <= r)


def upper_pattern(csr: CSRMatrix) -> CSRMatrix:
    """``upper(A)``: entries with col ≥ row (diagonal included)."""
    return _triangular(csr, lambda r, c: c >= r)


def strict_lower_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Entries with col < row."""
    return _triangular(csr, lambda r, c: c < r)


def strict_upper_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Entries with col > row."""
    return _triangular(csr, lambda r, c: c > r)


def pattern_union(a: CSRMatrix, b: CSRMatrix) -> CSRMatrix:
    """Structural union of two patterns (values become 1.0).

    Used to form ``A + Aᵀ`` for the level scheduling of
    ``lower(A + Aᵀ)`` without caring about numerical cancellation.
    """
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    n, m = a.n_rows, max(a.n_cols, 1)
    keys = np.concatenate(
        [
            segment_ids_from_ptr(a.indptr) * m + a.indices,
            segment_ids_from_ptr(b.indptr) * m + b.indices,
        ]
    )
    keys.sort(kind="stable")  # sorted operands make two runs: one merge
    new = np.ones(keys.shape[0], dtype=bool)
    new[1:] = keys[1:] != keys[:-1]
    rows, indices = np.divmod(keys[new], m)
    indptr = ptr_from_segment_ids(rows, n)
    return CSRMatrix(n, a.n_cols, indptr, indices, np.ones(indices.shape[0]), sort=False, check=False)


def symmetrize_pattern(csr: CSRMatrix) -> CSRMatrix:
    """Pattern of ``A + Aᵀ`` (square matrices only)."""
    if csr.n_rows != csr.n_cols:
        raise ValueError("symmetrize_pattern requires a square matrix")
    return pattern_union(csr, csr.transpose())


def is_pattern_symmetric(csr: CSRMatrix) -> bool:
    """True when the sparsity pattern equals that of its transpose.

    This is Table I's SP column ("if the symbolic pattern of the matrix
    in natural order is symmetric").
    """
    if csr.n_rows != csr.n_cols:
        return False
    t = csr.transpose()
    if t.nnz != csr.nnz:
        return False
    return bool(
        np.array_equal(t.indptr, csr.indptr) and np.array_equal(t.indices, csr.indices)
    )


def has_full_diagonal(csr: CSRMatrix) -> bool:
    """True when every diagonal position is structurally present.

    ILU without pivoting (Javelin does not pivot, §III) requires a
    structurally full diagonal; Dulmage–Mendelsohn matching is the
    preprocessing step that establishes it.
    """
    return bool(np.all(_diagonal_count(csr)[: min(csr.n_rows, csr.n_cols)] > 0))


def _diagonal_count(csr: CSRMatrix):
    """Number of stored ``(r, r)`` entries of every row."""
    row_of = segment_ids_from_ptr(csr.indptr)
    return np.bincount(row_of[csr.indices == row_of], minlength=csr.n_rows)


def add_diagonal_pattern(csr: CSRMatrix, value=0.0) -> CSRMatrix:
    """Return a copy with every diagonal position structurally present.

    Missing diagonal entries are inserted with ``value``; existing ones
    are untouched.
    """
    n = csr.n_rows
    row_of = segment_ids_from_ptr(csr.indptr)
    missing = np.flatnonzero(_diagonal_count(csr)[: min(n, csr.n_cols)] == 0)
    # a row is sorted, so its diagonal goes after its strict-lower entries
    below = np.bincount(row_of[csr.indices < row_of], minlength=n)
    at = csr.indptr[missing] + below[missing]
    return CSRMatrix(
        n,
        csr.n_cols,
        csr.indptr + np.searchsorted(missing, np.arange(n + 1)),
        np.insert(csr.indices, at, missing),
        np.insert(csr.data, at, value),
        sort=False,
        check=False,
    )


def split_lu(csr: CSRMatrix):
    """Split a factored matrix into unit-diagonal L and U (both CSR).

    Javelin stores L and U together in the CSR of A (Fig. 1: "L and U
    are stored in A"); the triangular solves then need them separately.
    L gets an implicit unit diagonal made explicit; U keeps the diagonal.
    """
    n = csr.n_rows
    below = csr.indices < segment_ids_from_ptr(csr.indptr)
    strict, U = csr.prune(below), csr.prune(~below)
    # explicit unit diagonal for L, last in each row
    ends = strict.indptr[1:]
    L = CSRMatrix(
        n,
        n,
        strict.indptr + np.arange(n + 1),
        np.insert(strict.indices, ends, np.arange(n)),
        np.insert(strict.data, ends, 1.0),
        sort=False,
        check=False,
    )
    return L, CSRMatrix(n, n, U.indptr, U.indices, U.data, sort=False, check=False)
