"""Block right-hand sides: per-column bit-identity with the vector sweep."""

from functools import partial

import numpy as np
import pytest

from repro.baselines import BlockJacobi
from repro.core import JavelinILU
from repro.core.iluk import ilu0_factor
from repro.kernels import cached_analysis
from repro.kernels.trisolve import (
    factor_solver,
    trisolve_factor,
    trisolve_lower,
    trisolve_lower_serial,
    trisolve_upper,
    trisolve_upper_serial,
)
from repro.matrices import grid2d
from repro.resilience import ResilientFactor

from helpers import random_csr


# each sweep's scalar reference and production form, by test parameter
SWEEPS = {
    ("trisolve_lower", "scalar"): trisolve_lower_serial,
    ("trisolve_lower", "batched"): trisolve_lower,
    ("trisolve_upper", "scalar"): trisolve_upper_serial,
    ("trisolve_upper", "batched"): trisolve_upper,
}


def _factor(n=40, seed=0):
    return ilu0_factor(random_csr(n, 0.15, seed=seed))


def _block(n, k, seed=1):
    return np.random.default_rng(seed).standard_normal((n, k))


class TestKernelBitIdentity:
    @pytest.mark.parametrize("k", [1, 3, 7])
    @pytest.mark.parametrize("name", ["trisolve_lower", "trisolve_upper"])
    def test_batched_matches_scalar_reference(self, name, k):
        F = _factor()
        B = _block(F.n_rows, k)
        out_s = SWEEPS[name, "scalar"](F, B)
        out_b = SWEEPS[name, "batched"](F, B)
        assert np.array_equal(out_s, out_b)  # bitwise, not approx

    @pytest.mark.parametrize("k", [1, 2, 5])
    def test_each_column_identical_to_one_rhs_solve(self, k):
        F = _factor(seed=3)
        B = _block(F.n_rows, k, seed=4)
        X = factor_solver(F)(B)
        for j in range(k):
            xj = trisolve_factor(F, B[:, j])
            assert np.array_equal(X[:, j], xj)

    def test_column_order_is_irrelevant(self):
        # batching must not couple columns: permuting them permutes output
        F = _factor(seed=5)
        B = _block(F.n_rows, 4, seed=6)
        perm = [2, 0, 3, 1]
        X = factor_solver(F)(B)
        Xp = factor_solver(F)(B[:, perm])
        assert np.array_equal(X[:, perm], Xp)

    def test_zero_width_block(self):
        F = _factor()
        for sweep in SWEEPS.values():
            X = sweep(F, np.empty((F.n_rows, 0)))
            assert X.shape == (F.n_rows, 0)
        assert factor_solver(F)(np.empty((F.n_rows, 0))).shape == (F.n_rows, 0)

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    @pytest.mark.parametrize("name", ["trisolve_lower", "trisolve_upper"])
    def test_vector_and_single_column_agree(self, name, backend):
        F = _factor()
        b = _block(F.n_rows, 1, seed=2)[:, 0]
        kernel = SWEEPS[name, backend]
        x = kernel(F, b)
        X = kernel(F, b[:, None])
        assert x.shape == (F.n_rows,) and X.shape == (F.n_rows, 1)
        assert np.array_equal(x, X[:, 0])

    def test_explicit_analysis_reused(self):
        F = _factor(seed=7)
        a = cached_analysis(F)
        B = _block(F.n_rows, 3, seed=8)
        X1 = factor_solver(F, a)(B)
        X2 = factor_solver(F)(B)
        assert np.array_equal(X1, X2)


class TestSolverIntegration:
    @pytest.mark.parametrize("k", [1, 4])
    def test_build_solver_block_equals_vector_applies(self, k):
        A = grid2d(10)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        apply = ilu.build_solver()
        B = _block(A.n_rows, k, seed=9)
        X = apply(B)
        assert X.shape == (A.n_rows, k)
        for j in range(k):
            assert np.array_equal(X[:, j], apply(B[:, j]))
            assert np.array_equal(X[:, j], ilu.solve(B[:, j]))

    def test_resilient_factor_multi_solver(self):
        A = grid2d(10)
        rf = ResilientFactor().setup(A)
        apply_multi = rf.build_multi_solver()
        apply_one = rf.build_solver()
        B = _block(A.n_rows, 5, seed=10)
        Z = apply_multi(B)
        for j in range(5):
            assert np.array_equal(Z[:, j], apply_one(B[:, j]))

    @pytest.mark.parametrize(
        "demotions, variant",
        [(0, "primary"), (1, "milu"), (2, "block_jacobi"), (3, "jacobi")],
    )
    def test_resilient_multi_solver_per_variant(self, demotions, variant):
        """ILU and MILU hand back their block apply; the fallbacks loop over columns."""
        rf = ResilientFactor().setup(grid2d(10))
        for _ in range(demotions):
            rf.resetup()
        assert rf.report.final_variant == variant
        apply_multi = rf.build_multi_solver()
        assert (apply_multi is rf.build_solver()) == (variant in ("primary", "milu"))
        B = _block(100, 3, seed=11)
        Z = apply_multi(B)
        for j in range(3):
            assert np.array_equal(Z[:, j], rf.solve(B[:, j]))


class TestRightHandSideShape:
    """A right-hand side that does not have the factor's rows is an error.

    An oversized one used to be truncated silently to its first n rows,
    and a short one failed with an opaque ``IndexError``.
    """

    N = 64  # grid2d(8)

    @pytest.fixture(scope="class")
    def ilu(self):
        ilu = JavelinILU().setup(grid2d(8))
        ilu.factor()
        return ilu

    @staticmethod
    def _bad(n):
        rng = np.random.default_rng(11)
        return [rng.standard_normal(n + 1), rng.standard_normal(n - 1),
                rng.standard_normal((n + 1, 2)), rng.standard_normal((n, 2, 1))]

    @pytest.mark.parametrize("backend", ["scalar", "batched"])
    @pytest.mark.parametrize("name", ["trisolve_lower", "trisolve_upper"])
    def test_kernels_reject(self, ilu, name, backend):
        for b in self._bad(self.N):
            with pytest.raises(ValueError, match=rf"shape \({b.shape[0]},.*{self.N} rows"):
                SWEEPS[name, backend](ilu.F, b)

    def test_factor_solves_reject(self, ilu):
        for fn in (partial(trisolve_factor, ilu.F), factor_solver(ilu.F)):
            for b in self._bad(self.N):
                with pytest.raises(ValueError, match=f"{self.N} rows"):
                    fn(b)

    def test_preconditioner_applies_reject(self, ilu):
        rf = ResilientFactor().setup(grid2d(8))
        bj = BlockJacobi(8).setup(grid2d(8))
        applies = [ilu.solve, ilu.build_solver(), ilu.build_multi_solver(),
                   rf.solve, rf.build_multi_solver(), bj.solve]
        b = np.ones(self.N + 1)
        for apply in applies:
            with pytest.raises(ValueError, match=f"{self.N} rows"):
                apply(b)
        B = np.ones((self.N + 1, 2))
        for apply in (ilu.build_multi_solver(), rf.build_multi_solver()):
            with pytest.raises(ValueError, match=f"{self.N} rows"):
                apply(B)

    def test_plan_of_another_pattern_rejected(self, ilu):
        other = cached_analysis(ilu0_factor(grid2d(9)))
        b = np.ones(self.N)
        for part, sweep in (("lower", trisolve_lower), ("upper", trisolve_upper)):
            with pytest.raises(ValueError, match="plan is for 81 rows"):
                sweep(ilu.F, b, plan=other.plan(part))
