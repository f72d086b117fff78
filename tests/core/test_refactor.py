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
from repro.kernels.cache import default_cache
from repro.matrices import grid2d
from repro.sparse import from_dense

from helpers import random_csr


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
