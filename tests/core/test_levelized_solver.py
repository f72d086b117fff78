"""The level-batched solve (``factor_solver``) and FGMRES."""

import numpy as np
import pytest

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
from repro.solvers import as_preconditioner
from repro.sparse import from_dense

from helpers import random_csr


class TestLevelizedSolver:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_serial_sweeps(self, seed, rng):
        F = ilu0_factor(random_csr(40, 0.12, seed=seed))
        b = rng.standard_normal(40)
        y = trisolve_lower_serial(F, b)
        assert np.array_equal(trisolve_lower(F, b), y)
        assert np.array_equal(trisolve_upper(F, y), trisolve_upper_serial(F, y))

    def test_solve_equals_full_apply(self, rng):
        F = ilu0_factor(random_csr(30, 0.15, seed=3))
        b = rng.standard_normal(30)
        assert np.array_equal(factor_solver(F)(b), trisolve_factor(F, b))

    def test_reusable_across_rhs(self, rng):
        F = ilu0_factor(random_csr(25, 0.2, seed=4))
        analysis = cached_analysis(F)
        apply = as_preconditioner(F, guard=False)
        for _ in range(3):
            b = rng.standard_normal(25)
            ref = trisolve_factor(F, b)
            assert np.array_equal(factor_solver(F, analysis)(b), ref)
            assert np.array_equal(apply(b), ref)

    def test_missing_diagonal_rejected(self):
        from repro.sparse import CSRMatrix

        F = CSRMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])
        # at build time, before any right-hand side arrives
        with pytest.raises(ValueError, match="diagonal"):
            as_preconditioner(F)

    def test_diagonal_matrix_one_level_each_way(self):
        F = from_dense(np.diag([2.0, 4.0]))
        analysis = cached_analysis(F)
        assert analysis.plan("lower").n_levels == 1
        assert analysis.plan("upper").n_levels == 1
        assert np.allclose(factor_solver(F)(np.array([2.0, 8.0])), [1.0, 2.0])

    def test_facade_build_solver(self, rng):
        A = random_csr(35, 0.12, seed=5)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        apply = ilu.build_solver()
        b = rng.standard_normal(35)
        assert np.allclose(apply(b), ilu.solve(b), atol=1e-11)

    def test_facade_build_solver_requires_factor(self):
        ilu = JavelinILU().setup(random_csr(10, 0.3, seed=6))
        with pytest.raises(RuntimeError, match="factor"):
            ilu.build_solver()

    def test_faster_than_serial_on_wide_levels(self, rng):
        """The point of the exercise: wide levels amortize to vector ops."""
        import time

        from repro.matrices.generators import grid2d

        A = grid2d(40)
        F = ilu0_factor(A)
        analysis = cached_analysis(F)
        b = rng.standard_normal(A.n_rows)
        t0 = time.perf_counter()
        for _ in range(3):
            trisolve_factor(F, b)
        t_ser = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(3):
            factor_solver(F, analysis)(b)
        t_lvl = time.perf_counter() - t0
        assert t_lvl < t_ser  # typically ~50x, assert conservatively


class TestFGMRES:
    def test_fixed_preconditioner_converges(self, rng):
        from repro.solvers import fgmres, gmres

        A = random_csr(40, 0.12, seed=7, dominance=1.5)
        b = rng.standard_normal(40)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        rf = fgmres(A, b, M=ilu.solve, tol=1e-8)
        rg = gmres(A, b, M=ilu.solve, tol=1e-8)
        assert rf.converged
        assert abs(rf.iterations - rg.iterations) <= 2  # same fixed M

    def test_variable_preconditioner_allowed(self, rng):
        """FGMRES converges with an M that changes every call; plain
        right-preconditioned GMRES has no such guarantee."""
        from repro.solvers import fgmres

        A = random_csr(40, 0.12, seed=8, dominance=1.5)
        b = rng.standard_normal(40)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        calls = {"k": 0}

        def wobbly_M(r):
            calls["k"] += 1
            scale = 1.0 + 0.2 * (calls["k"] % 3)  # changes between calls
            return scale * ilu.solve(r)

        rf = fgmres(A, b, M=wobbly_M, tol=1e-8)
        assert rf.converged
        assert np.linalg.norm(A @ rf.x - b) / np.linalg.norm(b) < 1e-7

    def test_unpreconditioned(self, rng):
        from repro.solvers import fgmres

        A = random_csr(30, 0.15, seed=9, dominance=2.0)
        b = rng.standard_normal(30)
        r = fgmres(A, b, tol=1e-8)
        assert r.converged

    def test_restart_path(self, rng):
        from repro.solvers import fgmres

        A = random_csr(40, 0.12, seed=10, dominance=1.2)
        b = rng.standard_normal(40)
        r = fgmres(A, b, tol=1e-8, restart=5)
        assert r.converged
