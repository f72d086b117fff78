"""Degenerate shapes and corner cases across the sparse substrate."""

import numpy as np
import pytest

from repro.sparse import (
    CSR5Matrix,
    CSRMatrix,
    from_dense,
    lower_pattern,
    spmv_csr,
    spmv_csr5,
    split_lu,
    symmetrize_pattern,
)


class TestOneByOne:
    def test_roundtrip(self):
        A = from_dense(np.array([[3.0]]))
        assert A.nnz == 1
        assert A.get(0, 0) == 3.0

    def test_factor_and_solve(self):
        from repro.core.iluk import ilu0_factor
        from repro.kernels.trisolve import trisolve_factor

        A = from_dense(np.array([[4.0]]))
        F = ilu0_factor(A)
        assert trisolve_factor(F, np.array([8.0]))[0] == pytest.approx(2.0)

    def test_csr5_single_entry(self):
        A = from_dense(np.array([[2.0]]))
        A5 = CSR5Matrix(A, tile_size=64)
        assert A5.n_tiles == 1
        assert np.allclose(spmv_csr5(A5, np.array([3.0])), [6.0])


class TestDegenerateRows:
    def test_fully_dense_row(self):
        D = np.eye(6)
        D[3, :] = 1.0
        D[3, 3] = 10.0
        A = from_dense(D)
        x = np.arange(6.0)
        assert np.allclose(spmv_csr(A, x), D @ x)

    def test_empty_row_in_middle(self):
        D = np.zeros((4, 4))
        D[0, 0] = D[2, 2] = D[3, 3] = 1.0  # row 1 completely empty
        A = from_dense(D)
        assert A.row_nnz()[1] == 0
        assert np.allclose(A.transpose().to_dense(), D.T)

    def test_lower_pattern_of_upper_triangular(self):
        D = np.triu(np.ones((5, 5)))
        L = lower_pattern(from_dense(D))
        assert np.allclose(L.to_dense(), np.eye(5))

    def test_split_lu_diagonal_only(self):
        D = np.diag([2.0, 3.0])
        L, U = split_lu(from_dense(D))
        assert np.allclose(L.to_dense(), np.eye(2))
        assert np.allclose(U.to_dense(), D)


class TestIdentityPermutation:
    def test_identity_perm_is_noop(self):
        from helpers import random_sparse_dense

        D = random_sparse_dense(8, 0.3, seed=1)
        A = from_dense(D)
        p = np.arange(8)
        B = A.permute(p, p)
        assert np.array_equal(B.indices, A.indices)
        assert np.allclose(B.data, A.data)

    def test_reverse_perm_involution(self):
        from helpers import random_sparse_dense

        D = random_sparse_dense(9, 0.3, seed=2)
        A = from_dense(D)
        p = np.arange(9)[::-1].copy()
        B = A.permute(p, p).permute(p, p)
        assert np.allclose(B.to_dense(), D)


class TestSymmetrizeEdge:
    def test_already_symmetric_unchanged_nnz(self):
        D = np.array([[1.0, 2.0], [2.0, 3.0]])
        A = from_dense(D)
        assert symmetrize_pattern(A).nnz == A.nnz

    def test_antisymmetric_pattern_doubles(self):
        D = np.eye(3)
        D[0, 1] = 1.0
        D[1, 2] = 1.0
        A = from_dense(D)
        assert symmetrize_pattern(A).nnz == A.nnz + 2


class TestLevelScheduleEdge:
    def test_single_row_matrix(self):
        from repro.ordering import level_schedule

        ls = level_schedule(from_dense(np.array([[1.0]])))
        assert ls.n_levels == 1

    def test_javelin_on_diagonal_matrix(self):
        from repro.core import JavelinILU

        A = from_dense(np.diag([1.0, 2.0, 3.0]))
        ilu = JavelinILU().setup(A)
        ilu.factor()
        assert ilu.stats()["n_levels"] == 1
        x = ilu.solve(np.array([1.0, 4.0, 9.0]))
        assert np.allclose(x, [1.0, 2.0, 3.0])
