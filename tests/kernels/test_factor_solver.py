"""The factor apply ``factor_solver`` against the scalar ``trisolve_factor``, in uint64 bits."""

import sys
import threading

import numpy as np
import pytest

from repro.core import JavelinILU
from repro.kernels.trisolve import apply_maps, factor_solver, trisolve_factor
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


def test_maps_are_composed_once_per_setup():
    A = grid2d(12)
    ilu = _factored(A)
    ilu.build_solver()
    maps = ilu._maps
    assert all(not m.flags.writeable for m in maps)
    ilu.refactor(A)
    ilu.build_solver()
    assert ilu._maps is maps
    ilu.setup(A)
    assert ilu._maps is None


def test_default_maps_are_the_identity_permutation():
    ilu = _factored(grid2d(12))
    F, a = ilu.F, ilu.analysis
    B = np.random.default_rng(2).standard_normal((F.n_rows, 3))
    ident = np.arange(F.n_rows)
    assert np.array_equal(_bits(factor_solver(F, a)(B)),
                          _bits(factor_solver(F, a, apply_maps(a, ident))(B)))
    assert np.array_equal(_bits(factor_solver(F, a, apply_maps(a, ilu.perm))(B)),
                          _bits(_reference(F, ilu.perm, B)))


def test_one_apply_serves_several_threads_at_once():
    """The compiled sweeps drop the GIL; concurrent calls share only read-only state."""
    ilu = _factored(grid2d(16))
    apply = ilu.build_solver()
    rhs = [np.random.default_rng(s).standard_normal((ilu.F.n_rows, 1 + s % 3)) for s in range(6)]
    want = [apply(B) for B in rhs]
    bad = []

    def worker(t):
        for i in range(40):
            j = (t + i) % len(rhs)
            if not np.array_equal(_bits(apply(rhs[j])), _bits(want[j])):
                bad.append((t, i))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(6)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(th.is_alive() for th in threads) and bad == []
