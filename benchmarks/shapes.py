"""Canonical DAG-shape builders of the scheduler benches and tests.

The scheduler crossover study (``bench_sched.py``) records its points
against named shapes — ``chain-400``, ``wide-16x128``, ``grid-24`` —
built here; the controller tests reuse the two extremes.

Three families span the level-structure spectrum the schedulers
discriminate on:

* ``chain_matrix(n)`` — a tridiagonal chain: ``n`` levels of width 1,
  the deep/thin extreme where DAG-partition scheduling pays no sync;
* ``wide_matrix(n_levels, width)`` — interleaved independent chains:
  the shallow/wide extreme where level batching already wins;
* ``grid_matrix(nx)`` — the ILU(0) pattern of ``grid2d(nx)`` in level
  order, the realistic mix.

Values are deterministic and diagonally dominant (a factor stand-in),
seeded by the row count, so a shape name always denotes one matrix
bit-for-bit.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix

__all__ = [
    "chain_matrix",
    "wide_matrix",
    "grid_matrix",
    "with_values",
]


def chain_matrix(n):
    """Tridiagonal chain: ``n`` levels of width 1 — the deep/thin extreme."""
    indptr = [0]
    indices = []
    for i in range(n):
        indices.extend(c for c in (i - 1, i, i + 1) if 0 <= c < n)
        indptr.append(len(indices))
    return with_values(
        CSRMatrix(n, n, np.asarray(indptr), np.asarray(indices), np.ones(len(indices)))
    )


def wide_matrix(n_levels, width):
    """``width`` independent chains interleaved: the shallow/wide extreme.

    Row ``l * width + j`` depends only on its predecessor in chain
    ``j`` — every level holds ``width`` independent rows.
    """
    n = n_levels * width
    indptr = [0]
    indices = []
    for r in range(n):
        l, _ = divmod(r, width)
        if l > 0:
            indices.append(r - width)
        indices.append(r)
        indptr.append(len(indices))
    return with_values(
        CSRMatrix(n, n, np.asarray(indptr), np.asarray(indices), np.ones(len(indices)))
    )


def grid_matrix(nx):
    """ILU(0) pattern of ``grid2d(nx)`` in level order — the realistic mix."""
    from repro.core.symbolic import ilu0_pattern
    from repro.matrices import grid2d
    from repro.ordering.levelsets import level_schedule

    S = ilu0_pattern(grid2d(nx))
    perm = level_schedule(S).permutation()
    Sp = S.permute(row_perm=perm, col_perm=perm)
    return with_values(Sp)


def with_values(S):
    """Deterministic diagonally-dominant values on a pattern (a factor stand-in)."""
    from repro.kernels.plans import diag_positions

    rng = np.random.default_rng(S.n_rows)
    F = CSRMatrix(
        S.n_rows, S.n_cols, S.indptr.copy(), S.indices.copy(),
        0.1 * rng.standard_normal(int(S.indptr[-1])),
        sort=False, check=False,
    )
    dp = diag_positions(F)
    F.data[dp] = 3.0 + np.abs(F.data[dp])
    return F

