"""The compiled row sums against the scalar row loop, bit for bit.

The level sweeps and ``spmv_csr`` hand every row sum to scipy's
compiled ``csr_matvec`` / ``csr_matvecs``.  They reproduce the scalar
references only if the wheel adds each ``a * x`` in entry order without
fusing the multiply into the add; these tests compare uint64 bit
patterns, so a wheel that contracts to an FMA fails here.
"""

import numpy as np
import pytest

from repro.kernels.plans import build_trisolve_plan
from repro.kernels.trisolve import sweep_row
from repro.sparse import spmv_csr
from repro.sparse.spmv import csr_matvec, csr_matvecs

from helpers import random_csr


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _level_sums(F, plan, Xp, lev):
    """The sweep's call for level ``lev`` on the level-ordered solution ``Xp``."""
    r0, r1 = int(plan.level_ptr[lev]), int(plan.level_ptr[lev + 1])
    k = 1 if Xp.ndim == 1 else Xp.shape[1]
    vals = F.data[plan.ent_idx]
    s = np.zeros((r1 - r0) * k)
    ptr = plan.ent_ptr[r0 : r1 + 1]
    if Xp.ndim == 1:
        csr_matvec(r1 - r0, plan.n, ptr, plan.ent_col, vals, Xp, s)
    else:
        csr_matvecs(r1 - r0, plan.n, k, ptr, plan.ent_col, vals, Xp.ravel(), s)
    return s.reshape((r1 - r0,) + Xp.shape[1:])


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("k", [1, 4])
def test_level_call_matches_sweep_row(seed, part, k):
    """Every level of a random factor, each row and column on its own."""
    rng = np.random.default_rng(seed)
    F = random_csr(120, density=0.15, seed=30 + seed)
    plan = build_trisolve_plan(F, part)
    shape = (F.n_rows,) if k == 1 else (F.n_rows, k)
    X, B = rng.standard_normal(shape), rng.standard_normal(shape)
    Xp = X[plan.rows]
    upper = part == "upper"
    for lev in range(plan.n_levels):
        r0 = int(plan.level_ptr[lev])
        s = _level_sums(F, plan, Xp, lev)
        for i, r in enumerate(plan.rows[r0 : int(plan.level_ptr[lev + 1])]):
            got = B[r] - s[i]
            if upper:
                got = got / F.data[plan.diag_idx[r]]
            for j in range(k):
                out = (X if k == 1 else X[:, j]).copy()
                sweep_row(F, B if k == 1 else B[:, j], out, int(r), upper)
                assert _bits(np.atleast_1d(got)[j]) == _bits(out[r])


@pytest.mark.parametrize("seed", [0, 1])
def test_spmv_csr_matches_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    A = random_csr(150, density=0.2, seed=40 + seed)
    x = rng.standard_normal(A.n_cols)
    ref = np.zeros(A.n_rows)
    for r in range(A.n_rows):
        s = 0.0
        for kk in range(int(A.indptr[r]), int(A.indptr[r + 1])):
            s += A.data[kk] * x[A.indices[kk]]
        ref[r] = s
    assert np.array_equal(_bits(spmv_csr(A, x)), _bits(ref))
