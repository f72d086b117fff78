"""End-to-end pipelines: suite matrix → preorder → Javelin → Krylov solve."""

import numpy as np
import pytest

from repro import (
    GROUP_A,
    JavelinILU,
    JavelinOptions,
    ScheduleOptions,
    bicgstab,
    build_matrix,
    cg,
    gmres,
    preorder_for_javelin,
)
from repro.core import ilu_factor_sequential


class TestFullPipeline:
    @pytest.mark.parametrize("name", ["wang3", "scircuit"])
    def test_suite_matrix_roundtrip(self, name):
        A = preorder_for_javelin(build_matrix(name, scale=0.35))
        ilu = JavelinILU().setup(A)
        res = ilu.factor()
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        assert np.array_equal(res.F.data, ref.data)

    def test_spd_cg_with_javelin_preconditioner(self):
        A = preorder_for_javelin(build_matrix("ecology2", scale=0.4))
        ilu = JavelinILU().setup(A)
        ilu.factor()
        rng = np.random.default_rng(0)
        b = rng.standard_normal(A.n_rows)
        plain = cg(A, b, tol=1e-8, maxiter=2000)
        pre = cg(A, b, M=ilu.solve, tol=1e-8, maxiter=2000)
        assert pre.converged
        assert pre.iterations <= plain.iterations

    def test_nonsymmetric_gmres_pipeline(self):
        A = preorder_for_javelin(build_matrix("trans4", scale=0.25))
        ilu = JavelinILU().setup(A)
        ilu.factor()
        rng = np.random.default_rng(1)
        b = rng.standard_normal(A.n_rows)
        pre = gmres(A, b, M=ilu.solve, tol=1e-8)
        assert pre.converged
        assert np.linalg.norm(A @ pre.x - b) / np.linalg.norm(b) < 1e-7

    def test_bicgstab_circuit_pipeline(self):
        A = preorder_for_javelin(build_matrix("ASIC_320ks", scale=0.2))
        ilu = JavelinILU().setup(A)
        ilu.factor()
        rng = np.random.default_rng(2)
        b = rng.standard_normal(A.n_rows)
        r = bicgstab(A, b, M=ilu.solve, tol=1e-8)
        assert r.converged

    def test_nonsym_pattern_requires_dm_path(self):
        """A structurally shuffled matrix goes through DM inside preorder."""
        A0 = build_matrix("3D_28984_Tetra", scale=0.4)
        rng = np.random.default_rng(3)
        q = rng.permutation(A0.n_rows)
        shuffled = A0.permute(row_perm=q)  # diagonal destroyed
        A = preorder_for_javelin(shuffled)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        assert ilu.stats()["n"] == A0.n_rows

    def test_iluk1_pipeline(self):
        A = preorder_for_javelin(build_matrix("wang3", scale=0.3))
        ilu = JavelinILU(JavelinOptions(fill_level=1)).setup(A)
        ilu.factor()
        rng = np.random.default_rng(4)
        b = rng.standard_normal(A.n_rows)
        r1 = gmres(A, b, M=ilu.solve, tol=1e-8)
        ilu0 = JavelinILU().setup(A)
        ilu0.factor()
        r0 = gmres(A, b, M=ilu0.solve, tol=1e-8)
        assert r1.converged
        assert r1.iterations <= r0.iterations  # more fill, stronger precond

    def test_two_stage_with_lower_preserves_solution(self):
        A = preorder_for_javelin(build_matrix("transient", scale=0.25))
        rng = np.random.default_rng(5)
        b = rng.standard_normal(A.n_rows)
        xs = []
        for method in ["none", "er", "sr"]:
            opts = JavelinOptions(
                schedule=ScheduleOptions(min_rows_per_level=24, lower_method=method)
            )
            ilu = JavelinILU(opts).setup(A)
            ilu.factor()
            xs.append(ilu.solve(b))
        assert np.array_equal(xs[0], xs[1])
        assert np.array_equal(xs[1], xs[2])
