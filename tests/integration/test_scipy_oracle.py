"""Cross-validation against SciPy as an independent oracle.

Everything in the library is implemented from scratch; these tests pit
the from-scratch implementations against SciPy's equivalents on the
same inputs.  SciPy is used *only* here — the library itself never
imports it.
"""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph
import scipy.sparse.linalg as spla

from repro.core.iluk import iluk_factor
from repro.core.ilut import ilut_factor
from repro.matrices.generators import grid2d
from repro.ordering import rcm_order
from repro.solvers import cg, gmres
from repro.sparse import from_dense, split_lu, spmv_csr

from helpers import random_csr, random_sparse_dense


def to_scipy(A):
    return sp.csr_matrix((A.data, A.indices, A.indptr), shape=A.shape)


class TestSparseOps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_spmv_matches_scipy(self, seed, rng):
        A = random_csr(40, 0.15, seed=seed)
        x = rng.standard_normal(40)
        assert np.allclose(spmv_csr(A, x), to_scipy(A) @ x)

    def test_transpose_matches_scipy(self):
        A = random_csr(30, 0.2, seed=3)
        T = A.transpose()
        S = to_scipy(A).T.tocsr()
        S.sort_indices()
        assert np.array_equal(T.indptr, S.indptr)
        assert np.array_equal(T.indices, S.indices)
        assert np.allclose(T.data, S.data)

    def test_matmul_association(self, rng):
        A = random_csr(25, 0.2, seed=4)
        x = rng.standard_normal(25)
        assert np.allclose(A @ x, to_scipy(A) @ x)


class TestOrderings:
    def test_rcm_bandwidth_comparable_to_scipy(self):
        """Our RCM need not match SciPy's vertex-for-vertex, but the
        bandwidth it achieves must be in the same class."""
        A = grid2d(12)
        ours = rcm_order(A)
        theirs = csgraph.reverse_cuthill_mckee(to_scipy(A), symmetric_mode=True)

        def bandwidth(perm):
            B = A.permute(np.asarray(perm, dtype=np.int64), np.asarray(perm, dtype=np.int64))
            r, c = np.nonzero(B.to_dense())
            return int(np.abs(r - c).max())

        assert bandwidth(ours) <= 2 * bandwidth(theirs) + 2


class TestFactorizations:
    def test_full_fill_ilu_matches_splu(self):
        """ILU(n) = complete LU; compare L·U against the matrix itself
        (splu pivots, so comparing factors directly is meaningless —
        compare reconstruction quality instead)."""
        D = random_sparse_dense(25, 0.2, seed=5)
        A = from_dense(D)
        F = iluk_factor(A, 25)
        L, U = split_lu(F)
        ours = np.abs(L.to_dense() @ U.to_dense() - D).max()
        lu = spla.splu(sp.csc_matrix(to_scipy(A)), permc_spec="NATURAL")
        x = lu.solve(np.ones(25))
        theirs = np.abs(D @ x - 1.0).max()
        assert ours < 1e-8  # both are exact decompositions
        assert theirs < 1e-8

    def test_ilut_precond_comparable_to_spilu(self, rng):
        """ILUT and SciPy's spilu at similar fill give similar GMRES
        iteration counts (within a small factor)."""
        A = grid2d(16, shift=0.05)
        b = rng.standard_normal(A.n_rows)
        F = ilut_factor(A, tau=1e-2)
        from repro.kernels.trisolve import trisolve_factor

        ours = gmres(A, b, M=lambda v: trisolve_factor(F, v), tol=1e-8)
        ilu = spla.spilu(sp.csc_matrix(to_scipy(A)), drop_tol=1e-2, fill_factor=4)
        theirs = gmres(A, b, M=ilu.solve, tol=1e-8)
        assert ours.converged and theirs.converged
        assert ours.iterations <= 3 * theirs.iterations + 5

    def test_cg_agrees_with_scipy_cg(self, rng):
        A = grid2d(14, shift=0.1)
        b = rng.standard_normal(A.n_rows)
        ours = cg(A, b, tol=1e-10)
        x_sp, info = spla.cg(to_scipy(A), b, rtol=1e-10, atol=0.0)
        assert info == 0
        assert np.allclose(ours.x, x_sp, atol=1e-6)

    def test_solve_matches_scipy_direct(self, rng):
        """Full-fill ILU + triangular solves == a direct solve."""
        D = random_sparse_dense(20, 0.25, seed=6)
        A = from_dense(D)
        F = iluk_factor(A, 20)
        from repro.kernels.trisolve import trisolve_factor

        b = rng.standard_normal(20)
        assert np.allclose(trisolve_factor(F, b), np.linalg.solve(D, b), atol=1e-8)
