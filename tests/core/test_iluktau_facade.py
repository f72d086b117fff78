"""ILU(k, τ) and MILU through the staged JavelinILU facade."""

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import drop_row_fixed_pattern, ilu0_factor
from repro.kernels import cached_analysis

from helpers import dense_reference, random_csr


def opts(tau, modified=False, alpha=8, k=0, lower_method="auto"):
    return JavelinOptions(
        fill_level=k,
        tau=tau,
        modified=modified,
        schedule=ScheduleOptions(min_rows_per_level=alpha, lower_method=lower_method),
    )


class TestDropPrimitive:
    def test_drops_small_keeps_diagonal(self):
        A = random_csr(10, 0.4, seed=1)
        F = ilu0_factor(A)
        dp = cached_analysis(F).diag_pos()
        big = np.abs(F.data).max()
        drop_row_fixed_pattern(F, 3, dp, threshold=big * 10)
        lo, hi = int(F.indptr[3]), int(F.indptr[3 + 1])
        cols = F.indices[lo:hi]
        vals = F.data[lo:hi]
        assert vals[cols == 3][0] != 0.0  # diagonal survived
        assert np.all(vals[cols != 3] == 0.0)

    def test_modified_adds_mass_to_diagonal(self):
        A = random_csr(10, 0.4, seed=2)
        F = ilu0_factor(A)
        dp = cached_analysis(F).diag_pos()
        lo, hi = int(F.indptr[5]), int(F.indptr[6])
        before_diag = F.data[dp[5]]
        before_sum = F.data[lo:hi].sum()
        drop_row_fixed_pattern(F, 5, dp, threshold=1e9, modified=True)
        # row sum preserved: dropped mass moved onto the diagonal
        assert F.data[lo:hi].sum() == pytest.approx(before_sum)
        assert F.data[dp[5]] != before_diag or before_sum == before_diag

    def test_returns_dropped_mass(self):
        A = random_csr(10, 0.4, seed=3)
        F = ilu0_factor(A)
        dp = cached_analysis(F).diag_pos()
        lo, hi = int(F.indptr[2]), int(F.indptr[3])
        offdiag = F.data[lo:hi].sum() - F.data[dp[2]]
        dropped = drop_row_fixed_pattern(F, 2, dp, threshold=1e9)
        assert dropped == pytest.approx(offdiag)


class TestFacadeParity:
    @pytest.mark.parametrize("method", ["none", "er", "sr"])
    @pytest.mark.parametrize("modified", [False, True])
    def test_staged_equals_reference_with_dropping(self, method, modified):
        A = random_csr(45, 0.1, seed=4, dominance=1.5)
        ilu = JavelinILU(opts(tau=0.05, modified=modified, lower_method=method)).setup(A)
        res = ilu.factor()
        assert np.array_equal(res.F.data, dense_reference(ilu))

    def test_tau_zero_identical_to_plain(self):
        A = random_csr(30, 0.15, seed=5)
        plain = JavelinILU(opts(tau=0.0)).setup(A).factor().F.data
        # tau tiny enough to drop nothing
        eps = JavelinILU(opts(tau=1e-300)).setup(A).factor().F.data
        assert np.array_equal(plain, eps)

    def test_dropping_reduces_effective_nnz(self):
        A = random_csr(40, 0.12, seed=6, dominance=1.0)
        dense_count = np.count_nonzero(JavelinILU(opts(tau=0.0)).setup(A).factor().F.data)
        sparse_count = np.count_nonzero(
            JavelinILU(opts(tau=0.2)).setup(A).factor().F.data
        )
        assert sparse_count < dense_count

    def test_iluk_tau_combination(self):
        A = random_csr(30, 0.15, seed=7, dominance=1.2)
        ilu = JavelinILU(opts(tau=0.02, k=1)).setup(A)
        res = ilu.factor()
        assert np.array_equal(res.F.data, dense_reference(ilu))
        assert ilu.S_perm.nnz > A.nnz  # level-1 fill present structurally

    def test_solve_works_after_dropping(self):
        A = random_csr(30, 0.15, seed=8, dominance=2.0)
        ilu = JavelinILU(opts(tau=0.05)).setup(A)
        ilu.factor()
        x = ilu.solve(np.ones(30))
        assert np.all(np.isfinite(x))

    def test_preconditioner_quality_degrades_gracefully(self):
        """More dropping -> weaker preconditioner, but still better than none."""
        from repro.solvers import gmres

        A = random_csr(60, 0.1, seed=9, dominance=1.2)
        rng = np.random.default_rng(0)
        b = rng.standard_normal(60)
        its = []
        for tau in [0.0, 0.05, 0.3]:
            ilu = JavelinILU(opts(tau=tau)).setup(A)
            ilu.factor()
            its.append(gmres(A, b, M=ilu.solve, tol=1e-8).iterations)
        assert its[0] <= its[1] <= its[2] + 2
