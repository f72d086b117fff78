"""Sparse-matrix substrate for the Javelin reproduction.

This subpackage provides the lightweight sparse storage formats the paper
builds on: COO for assembly, CSR as the working format of the
factorization (the paper stresses that Javelin works in *conventional*
CSR with minimal auxiliary structure), CSC for column access, pattern
algebra (``lower(A)``, ``lower(A + A^T)``), segment-pointer helpers and
a CSR5-style tiled format used by the Segmented-Rows lower stage, sparse
matrix-vector products, and MatrixMarket I/O.

Everything is implemented on top of NumPy arrays; the one SciPy import
is the compiled CSR row-sum loop in :mod:`.spmv`, and tests use SciPy as
an independent oracle.
"""

from .coo import COOMatrix
from .csr import CSRMatrix
from .csc import CSCMatrix
from .convert import coo_to_csr, csr_to_coo, csr_to_csc, csc_to_csr, from_dense, to_dense
from .pattern import (
    lower_pattern,
    upper_pattern,
    strict_lower_pattern,
    strict_upper_pattern,
    symmetrize_pattern,
    pattern_union,
    is_pattern_symmetric,
    has_full_diagonal,
    split_lu,
)
from .segscan import segment_ids_from_ptr
from .csr5 import CSR5Matrix, Tile
from .spmv import spmv_csr, spmv_csr5, spmv_rows
from .io import read_matrix_market, write_matrix_market
from .interop import from_scipy, to_scipy

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_csr",
    "from_dense",
    "to_dense",
    "lower_pattern",
    "upper_pattern",
    "strict_lower_pattern",
    "strict_upper_pattern",
    "symmetrize_pattern",
    "pattern_union",
    "is_pattern_symmetric",
    "has_full_diagonal",
    "split_lu",
    "segment_ids_from_ptr",
    "CSR5Matrix",
    "Tile",
    "spmv_csr",
    "spmv_csr5",
    "spmv_rows",
    "read_matrix_market",
    "write_matrix_market",
    "from_scipy",
    "to_scipy",
]
