"""Sparse matrix-vector products.

Three kernels:

* ``spmv_csr`` — the conventional row-wise CSR kernel, one compiled
  :func:`csr_matvec` call over the whole matrix.
* ``spmv_csr5`` — the CSR5 tile-by-tile segmented-scan kernel with carry
  propagation between tiles that split a row.  Numerically identical to
  ``spmv_csr``; it exists to exercise and validate the tile machinery the
  Segmented-Rows lower stage reuses.
* ``spmv_rows`` — partial product over a subset of rows (a public
  helper; the library's own sweeps do not call it).

This module is the one place that imports scipy's compiled CSR loops,
:func:`csr_matvec` (``y += A @ x``) and :func:`csr_matvecs` (the same
for a row-major ``(n, k)`` block).  ``spmv_csr`` calls the first; the
triangular sweeps run their own C loop (``kernels/level_sweep.c``) and
reuse both scipy loops only as their no-compiler fallback, one call per
level.  Both start each row's sum from ``y[i]`` and add ``a * x`` entry
by entry in storage order, the order of the scalar references, so
results agree bit for bit.  Two risks come with them:

* ``scipy.sparse._sparsetools`` is a private module of a declared
  dependency, so a scipy release may move or change it;
* the bits assume the wheel does not contract ``sum + a * x`` into a
  fused multiply-add.  The sweep's own library has the same risk, held
  off by building it with ``-ffp-contract=off`` and never a fast-math
  flag (``kernels/native.py``).  ``tests/kernels/test_level_call.py``
  compares ``spmv_csr``, both sweeps and their fallback with the scalar
  row loop in uint64 bits, so a build that fuses fails there.
Neither function checks bounds: index arrays must be valid, and both
index arrays share one integer type (int32 here, to avoid a copy).
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import _sparsetools

from .csr import CSRMatrix
from .csr5 import CSR5Matrix

__all__ = ["spmv_csr", "spmv_csr5", "spmv_rows", "csr_matvec", "csr_matvecs"]

#: ``csr_matvec(n_row, n_col, ptr, cols, vals, x, y)``: ``y += A @ x``
csr_matvec = _sparsetools.csr_matvec
#: ``csr_matvecs(n_row, n_col, k, ptr, cols, vals, x, y)`` on flat row-major ``(·, k)`` blocks
csr_matvecs = _sparsetools.csr_matvecs


def spmv_csr(A: CSRMatrix, x):
    """y = A @ x with the conventional CSR kernel."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (A.n_cols,):  # the compiled loop would read a block as flat memory
        raise ValueError(f"x has shape {x.shape}, expected length {A.n_cols}")
    y = np.zeros(A.n_rows)
    csr_matvec(A.n_rows, A.n_cols, A.indptr, A.indices, A.data, x, y)
    return y


def spmv_csr5(A5: CSR5Matrix, x):
    """y = A @ x via per-tile segmented scans with inter-tile carries.

    Each tile reduces its elements by row independently; when a row spans
    a tile boundary the trailing partial sum is carried into the next
    tile's head — the vector-lane "dirty head" fix-up of CSR5.
    """
    csr = A5.csr
    x = np.asarray(x, dtype=np.float64)
    if x.shape[0] != csr.n_cols:
        raise ValueError(f"x has length {x.shape[0]}, expected {csr.n_cols}")
    y = np.zeros(csr.n_rows)
    for t in A5.tiles:
        vals = csr.data[t.start : t.stop] * x[csr.indices[t.start : t.stop]]
        # reduce within the tile by local row id
        local = t.seg_ids - t.first_row
        partial = np.zeros(t.n_rows)
        np.add.at(partial, local, vals)
        y[t.first_row : t.last_row + 1] += partial
    return y


def spmv_rows(A: CSRMatrix, x, rows):
    """Partial product: ``y[r] = A[r, :] @ x`` for each row in ``rows``.

    Rows not listed get 0 in the output (output has full length
    ``A.n_rows`` so it can be combined with other partial sweeps).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.zeros(A.n_rows)
    for r in rows:
        lo, hi = A.indptr[r], A.indptr[r + 1]
        y[r] = np.dot(A.data[lo:hi], x[A.indices[lo:hi]])
    return y
