"""Fine-grained asynchronous ILU (Chow & Patel, SISC 2015).

The paper's §II singles this method out: it scales superbly on
many-core/GPU hardware but "may result in an incomplete factorization
that is nondeterministic and that challenges traditional dropping or
modified incomplete factorization due to race conditions".  Javelin's
pitch is keeping traditional, deterministic ILU competitive — so the
comparison baseline belongs in the reproduction.

Formulation: the ILU equations on the pattern S are a fixed point of

    l_ij = (a_ij − Σ_{k<j} l_ik u_kj) / u_jj      (i > j)
    u_ij =  a_ij − Σ_{k<i} l_ik u_kj              (i ≤ j)

Chow–Patel sweeps these updates over all nonzeros in parallel with no
ordering constraints; each sweep uses whatever neighbour values happen
to be current.  We provide:

* :func:`chow_patel_ilu` — synchronous (Jacobi-style) sweeps, fully
  deterministic, for convergence studies;
* ``asynchronous=True`` — in-place (Gauss–Seidel-style) sweeps over a
  randomly shuffled nonzero order, modelling the hardware's racy
  update interleavings: different seeds give *different* factors, the
  nondeterminism the paper contrasts with Javelin;
* :func:`simulate_sweep` — the machine-model cost of one sweep (it is
  embarrassingly parallel: nnz-proportional work, no sync).
"""

from __future__ import annotations

import numpy as np

from ..core.symbolic import ilu0_pattern
from ..kernels import cached_analysis
from ..machine.core import SimMachine
from ..sparse.csr import CSRMatrix

__all__ = ["chow_patel_ilu", "simulate_sweep", "fixed_point_residual"]


def _entry_lists(S: CSRMatrix):
    """Flatten the pattern into (i, j, storage_idx) triples."""
    rows = np.repeat(np.arange(S.n_rows, dtype=np.int64), np.diff(S.indptr))
    return rows, S.indices.copy(), np.arange(S.nnz, dtype=np.int64)


def _row_map(S: CSRMatrix):
    """Per-row dict col -> storage idx for O(1) lookups in the sweeps."""
    maps = []
    for r in range(S.n_rows):
        lo, hi = int(S.indptr[r]), int(S.indptr[r + 1])
        maps.append({int(c): k for c, k in zip(S.indices[lo:hi], range(lo, hi))})
    return maps


def _update_entry(i, j, kk, A_val, data, maps, diag_idx):
    """One fixed-point update of entry (i, j) stored at ``kk``."""
    # s = sum over k < min(i, j) of l_ik * u_kj
    s = 0.0
    row_i = maps[i]
    lim = min(i, j)
    for k, ki in row_i.items():
        if k >= lim:
            continue
        kj = maps[k].get(j)
        if kj is not None:
            s += data[ki] * data[kj]
    if i > j:  # L entry
        djj = data[diag_idx[j]]
        if djj == 0.0:
            return data[kk]  # skip until the diagonal stabilizes
        return (A_val - s) / djj
    return A_val - s  # U entry (including diagonal)


def chow_patel_ilu(
    A: CSRMatrix,
    S: CSRMatrix | None = None,
    *,
    sweeps=5,
    asynchronous=False,
    seed=0,
):
    """Iterative fine-grained ILU on pattern S (default ILU(0)).

    Returns the combined L\\U factor after ``sweeps`` fixed-point
    sweeps, initialized from A (the standard warm start).  Synchronous
    mode updates all entries from the previous sweep's values
    (deterministic); asynchronous mode updates in place in a shuffled
    order (run-to-run nondeterministic across seeds).
    """
    if S is None:
        S = ilu0_pattern(A)
    from ..core.iluk import _scatter_values

    F = _scatter_values(S, A)
    A_on_S = F.data.copy()  # A's values aligned with S's storage
    diag_idx = cached_analysis(F).diag_pos()
    maps = _row_map(S)
    rows, cols, idxs = _entry_lists(S)
    rng = np.random.default_rng(seed)

    for _ in range(sweeps):
        if asynchronous:
            # in-place updates in a shuffled order: each entry reads
            # whatever mix of old/new neighbour values the order implies,
            # modelling the hardware's racy interleavings
            order = rng.permutation(S.nnz)
            for kk in order:
                kk = int(kk)
                F.data[kk] = _update_entry(
                    int(rows[kk]), int(cols[kk]), kk, A_on_S[kk], F.data, maps, diag_idx
                )
        else:
            # Jacobi-style: every entry reads the previous sweep's values
            snapshot = F.data.copy()
            new = np.empty_like(F.data)
            for kk in range(S.nnz):
                new[kk] = _update_entry(
                    int(rows[kk]), int(cols[kk]), kk, A_on_S[kk], snapshot, maps, diag_idx
                )
            F.data = new
    return F


def fixed_point_residual(A: CSRMatrix, F: CSRMatrix):
    """Max deviation of F from the ILU fixed point on its pattern.

    Zero exactly when F is the (unique, under nonzero pivots) ILU
    factor; Chow–Patel convergence is measured by this dropping.
    """
    diag_idx = cached_analysis(F).diag_pos()
    maps = _row_map(F)
    from ..core.iluk import _scatter_values

    A_on_S = _scatter_values(F.pattern_copy(), A).data
    rows, cols, _ = _entry_lists(F)
    worst = 0.0
    for kk in range(F.nnz):
        i, j = int(rows[kk]), int(cols[kk])
        want = _update_entry(i, j, kk, A_on_S[kk], F.data, maps, diag_idx)
        worst = max(worst, abs(want - F.data[kk]))
    return worst


def simulate_sweep(S: CSRMatrix, machine: SimMachine, *, sweeps=1):
    """Machine-model time of Chow–Patel sweeps: flat nnz-parallel work.

    Each entry's update costs ~2·(row overlap) flops; there is no
    synchronization at all inside a sweep — the property that makes the
    method scale where level scheduling cannot, at the price of
    determinism and approximation.
    """
    # mean overlap work per entry ~ average row length
    avg_row = S.nnz / max(S.n_rows, 1)
    per_entry_flops = 2.0 * avg_row
    per_entry_touch = avg_row
    total = 0.0
    entries_per_thread = -(-S.nnz // machine.n_threads)
    for _ in range(sweeps):
        total += entries_per_thread * machine.work_time(
            per_entry_flops, per_entry_touch, thread=0
        )
        total += machine.barrier_cost()  # sweep boundary
    return total
