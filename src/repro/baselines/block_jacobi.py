"""Block-Jacobi preconditioner — the embarrassingly parallel baseline.

Not in the paper's figures, but the natural lower bound everyone
compares ILU against: invert independent diagonal blocks, no coupling,
no synchronization at all.  It scales perfectly and preconditions
poorly — the opposite corner of the design space from Javelin, which
pays synchronization for coupling.  Useful in examples and as a
calibration anchor for the end-to-end model (a method with zero sync
cost shows what the machine model's pure-compute scaling looks like).
"""

from __future__ import annotations

import numpy as np

from ..machine.core import SimMachine
from ..sparse.csr import CSRMatrix

__all__ = ["BlockJacobi"]


class BlockJacobi:
    """Block-Jacobi preconditioner with contiguous equal blocks.

    Parameters
    ----------
    block_size:
        Rows per diagonal block (the last block may be short).
    """

    def __init__(self, block_size=32):
        if block_size < 1:
            raise ValueError("block_size must be >= 1")
        self.block_size = int(block_size)
        self._ready = False

    def setup(self, A: CSRMatrix):
        """Extract and invert (factorize) the diagonal blocks."""
        if A.n_rows != A.n_cols:
            raise ValueError("block Jacobi requires a square matrix")
        n = A.n_rows
        self.n = n
        self.blocks = []
        for lo in range(0, n, self.block_size):
            hi = min(lo + self.block_size, n)
            B = np.zeros((hi - lo, hi - lo))
            for r in range(lo, hi):
                cols, vals = A.row(r)
                inside = (cols >= lo) & (cols < hi)
                B[r - lo, cols[inside] - lo] = vals[inside]
            # guard singular blocks with a tiny regularization
            try:
                lu = np.linalg.inv(B)
            except np.linalg.LinAlgError:
                lu = np.linalg.inv(B + 1e-10 * np.eye(hi - lo))
            self.blocks.append((lo, hi, lu))
        self._ready = True
        return self

    def solve(self, r):
        """Apply ``z = M⁻¹ r`` block by block."""
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        r = np.asarray(r, dtype=np.float64)
        if r.shape != (self.n,):
            raise ValueError(
                f"right-hand side of shape {r.shape} does not match {self.n} rows"
            )
        z = np.empty(self.n)
        for lo, hi, inv in self.blocks:
            z[lo:hi] = inv @ r[lo:hi]
        return z

    def simulate_apply(self, machine: SimMachine):
        """Modelled apply time: independent dense block solves, zero sync."""
        thread_time = np.zeros(machine.n_threads)
        for i, (lo, hi, _) in enumerate(self.blocks):
            b = hi - lo
            t = i % machine.n_threads
            thread_time[t] += machine.work_time(2.0 * b * b, b * b / 8.0, thread=t, vectorized=True)
        return float(thread_time.max())
