"""Value-only re-factorization: bit-identity, symbolic reuse, guards."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    JavelinILU,
    JavelinOptions,
    ScheduleOptions,
    ilu_factor_sequential,
    iluk_pattern,
)
from repro.kernels.cache import default_cache, frozen_pattern
from repro.matrices import grid2d
from repro.sparse import from_dense

from helpers import on_pattern, random_csr


def opts(**kw):
    return JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=8), **kw)


def _drift(A, seed):
    """Same pattern, perturbed values (diagonal kept dominant)."""
    rng = np.random.default_rng(seed)
    B = A.copy()
    B.data = B.data * (1.0 + 0.2 * rng.standard_normal(B.data.shape))
    from repro.kernels import diag_positions

    B.data[diag_positions(B)] += np.abs(B.data).max()
    return B


class TestJavelinRefactor:
    @pytest.mark.parametrize("fill_level", [0, 1, 2])
    def test_bitwise_identical_to_cold_factor(self, fill_level):
        A = grid2d(10)
        ilu = JavelinILU(opts(fill_level=fill_level)).setup(A)
        ilu.factor()
        for seed in range(3):
            B = _drift(A, seed)
            warm = ilu.refactor(B)
            cold = JavelinILU(opts(fill_level=fill_level)).setup(B).factor()
            assert np.array_equal(warm.F.data, cold.F.data)
            assert np.array_equal(warm.F.indices, cold.F.indices)
            assert np.array_equal(warm.F.indptr, cold.F.indptr)

    def test_refactor_reuses_symbolic_cache(self):
        A = grid2d(10)
        ilu = JavelinILU(opts(fill_level=1)).setup(A)
        ilu.factor()
        before = default_cache().stats()["misses"]
        for seed in range(4):
            ilu.refactor(_drift(A, seed))
        assert default_cache().stats()["misses"] == before

    def test_refactor_solve_matches_cold_solve(self):
        A = grid2d(10)
        B = _drift(A, 3)
        ilu = JavelinILU(opts()).setup(A)
        ilu.factor()
        ilu.refactor(B)
        cold = JavelinILU(opts()).setup(B)
        cold.factor()
        b = np.linspace(1.0, 2.0, A.n_rows)
        assert np.array_equal(ilu.solve(b), cold.solve(b))

    def test_rejects_pattern_change(self):
        ilu = JavelinILU(opts()).setup(grid2d(10))
        ilu.factor()
        with pytest.raises(ValueError, match="pattern"):
            ilu.refactor(grid2d(11))

    def test_rejects_a_moved_entry_of_the_same_size(self):
        """Same n and nnz, one column index moved: the digests differ."""
        A = grid2d(10)
        ilu = JavelinILU(opts(fill_level=1)).setup(A)
        ilu.factor()
        D = A.to_dense()
        D[0, 2], D[0, 1] = D[0, 1], 0.0  # row 0's east neighbour moves one column over
        B = from_dense(D)
        assert (B.n_rows, B.nnz) == (A.n_rows, A.nnz)
        with pytest.raises(ValueError, match="pattern"):
            ilu.refactor(B)
        with pytest.raises(ValueError, match="pattern"):
            ilu.refactor(on_pattern(B, *frozen_pattern(B)))

    def test_a_frozen_pattern_is_compared_with_the_setup_digest(self):
        A = grid2d(10)
        ilu = JavelinILU(opts()).setup(A)
        ilu.factor()
        B = _drift(A, 1)
        want = JavelinILU(opts()).setup(B).factor().F.data
        frozen = on_pattern(B, *frozen_pattern(B))
        for _ in range(2):  # hashed, then the remembered digest
            assert np.array_equal(ilu.refactor(frozen).F.data, want)
        C = grid2d(11)
        with pytest.raises(ValueError, match="pattern"):
            ilu.refactor(on_pattern(C, *frozen_pattern(C)))

    @pytest.mark.parametrize("kw", [dict(fill_level=0), dict(fill_level=1),
                                    dict(fill_level=2, tau=1e-2, modified=True)])
    def test_refactor_neither_permutes_nor_searches(self, kw, monkeypatch):
        """The setup maps move the values: no sort, no global searchsorted."""
        import repro.core.iluk
        from repro.sparse.csr import CSRMatrix

        A = grid2d(10)
        ilu = JavelinILU(opts(**kw)).setup(A)
        ilu.factor()
        values = [_drift(A, seed) for seed in range(3)]
        cold = [JavelinILU(opts(**kw)).setup(B) for B in values]

        def forbidden(*args, **kwargs):
            raise AssertionError("refactor redid pattern work")

        monkeypatch.setattr(CSRMatrix, "permute", forbidden)
        monkeypatch.setattr(repro.core.iluk, "_scatter_values", forbidden)
        monkeypatch.setattr(repro.core.iluk, "scatter_slots", forbidden)
        for B, c in zip(values, cold):
            warm = ilu.refactor(B)
            assert np.array_equal(ilu.A_perm.data, c.A_perm.data)
            assert np.array_equal(warm.F.data, c.factor().F.data)

    @pytest.mark.parametrize("fill_level,sorts", [(0, 1), (1, 2)])
    def test_cold_setup_sorts_the_pattern_once_per_pattern(self, fill_level, sorts, monkeypatch):
        """ILU(0)'s S is A's pattern: one sort of P A Pᵀ serves both."""
        import repro.sparse.csr

        A = grid2d(12)
        real = repro.sparse.csr.sort_segments
        calls = []

        def counted(*args):
            calls.append(args[0].shape[0])
            return real(*args)

        monkeypatch.setattr(repro.sparse.csr, "sort_segments", counted)
        ilu = JavelinILU(opts(fill_level=fill_level)).setup(A)
        assert len(calls) == sorts
        if fill_level == 0:
            assert np.array_equal(ilu.S_perm.indices, ilu.A_perm.indices)
            assert np.array_equal(ilu._slots, np.arange(A.nnz))

    def test_requires_setup_first(self):
        with pytest.raises(RuntimeError, match="setup"):
            JavelinILU(opts()).refactor(grid2d(6))


class TestSequentialRefactor:
    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_bitwise_identical_to_sequential(self, k):
        # the sequential reference re-run on new values reads diag_pos
        # from the warm symbolic cache; a cleared cache must not matter
        A = random_csr(40, 0.12, seed=11)
        S = iluk_pattern(A, k)
        ilu_factor_sequential(A, S)
        for seed in range(3):
            B = _drift(A, seed)
            warm = ilu_factor_sequential(B, S)
            default_cache().clear()
            cold = ilu_factor_sequential(B, S)
            assert np.array_equal(warm.data, cold.data)
            assert np.array_equal(warm.indices, cold.indices)


@st.composite
def dominant_dense(draw, max_n=12):
    n = draw(st.integers(4, max_n))
    density = draw(st.floats(0.1, 0.4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return D


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.integers(0, 2), st.integers(0, 999))
def test_refactor_identity_property(D, fill_level, drift_seed):
    """Property: refactor(B) ≡ setup(B).factor() for any same-pattern B."""
    A = from_dense(D)
    ilu = JavelinILU(opts(fill_level=fill_level)).setup(A)
    ilu.factor()
    B = _drift(A, drift_seed)
    warm = ilu.refactor(B)
    cold = JavelinILU(opts(fill_level=fill_level)).setup(B).factor()
    assert np.array_equal(warm.F.data, cold.F.data)
