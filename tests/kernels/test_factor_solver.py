"""The factor apply ``factor_solver`` against the scalar ``trisolve_factor``, in uint64 bits."""

import numpy as np
import pytest

from repro.core import JavelinILU
from repro.kernels.trisolve import factor_solver, trisolve_factor
from repro.matrices import grid2d
from repro.sparse import from_dense

CASES = {
    # grid2d(12) under the default schedule: 78 of 144 rows in the lower stage
    "grid": lambda: grid2d(12),
    "one": lambda: from_dense(np.array([[2.0]])),
    "diagonal": lambda: from_dense(np.diag(np.arange(1.0, 21.0))),
}


def _bits(x):
    return np.ascontiguousarray(x, dtype=np.float64).view(np.uint64)


def _factored(A):
    ilu = JavelinILU().setup(A)
    ilu.factor()
    return ilu


def _reference(F, perm, B):
    """``trisolve_factor`` of ``B[perm]``, scattered back through ``perm``."""
    X = np.empty(B.shape)
    X[perm] = trisolve_factor(F, B[perm])
    return X


@pytest.mark.parametrize("k", [1, 4])
@pytest.mark.parametrize("case", sorted(CASES))
def test_permuted_apply_matches_the_scalar_reference(case, k):
    ilu = _factored(CASES[case]())
    n = ilu.F.n_rows
    if case == "grid":
        assert ilu.schedule.n_lower_rows > 0
        assert np.any(ilu.perm != np.arange(n))
    B = np.random.default_rng(k).standard_normal((n, k))
    apply = ilu.build_solver()
    rhs = [B[:, 0], B] if k == 1 else [B, np.asfortranarray(B)]
    for b in rhs:
        assert np.array_equal(_bits(apply(b)), _bits(_reference(ilu.F, ilu.perm, b)))


def test_unpermuted_apply_matches_the_scalar_reference():
    F = _factored(grid2d(12)).F
    B = np.random.default_rng(0).standard_normal((F.n_rows, 4))
    assert np.array_equal(_bits(factor_solver(F)(B)), _bits(trisolve_factor(F, B)))


def test_apply_keeps_the_values_it_was_built_with():
    A = grid2d(12)
    ilu = _factored(A)
    F_old = ilu.F
    apply = ilu.build_solver()
    b = np.random.default_rng(1).standard_normal(A.n_rows)
    before = apply(b)
    drifted = A.copy()
    drifted.data = A.data * np.linspace(1.0, 2.0, A.nnz)
    ilu.refactor(drifted)
    assert not np.array_equal(ilu.F.data, F_old.data)
    assert np.array_equal(_bits(apply(b)), _bits(before))
    assert np.array_equal(_bits(before), _bits(_reference(F_old, ilu.perm, b)))
    assert not np.array_equal(ilu.build_solver()(b), before)
    # the apply holds copies: overwriting the old factor in place changes nothing
    F_old.data[:] = 1.0
    assert np.array_equal(_bits(apply(b)), _bits(before))
