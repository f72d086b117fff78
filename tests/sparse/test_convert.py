import numpy as np
import pytest

from repro.sparse import (
    COOMatrix,
    coo_to_csr,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    from_dense,
    to_dense,
)

from helpers import has_sorted_indices, random_sparse_dense


class TestCooToCsr:
    def test_sums_duplicates(self):
        coo = COOMatrix(2, 2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        A = coo_to_csr(coo)
        assert A.nnz == 2
        assert A.get(0, 1) == 3.0

    def test_empty(self):
        A = coo_to_csr(COOMatrix(3, 3, [], [], []))
        assert A.nnz == 0
        assert A.shape == (3, 3)

    def test_rows_sorted(self):
        coo = COOMatrix(2, 4, [1, 0, 1, 0], [3, 2, 0, 0], [1, 2, 3, 4])
        A = coo_to_csr(coo)
        assert has_sorted_indices(A)

    def test_matches_dense(self):
        D = random_sparse_dense(12, 0.3, seed=1)
        rows, cols = np.nonzero(D)
        A = coo_to_csr(COOMatrix(12, 12, rows, cols, D[rows, cols]))
        assert np.allclose(A.to_dense(), D)


class TestRoundtrips:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_csr_coo_csr(self, seed):
        D = random_sparse_dense(10, 0.3, seed=seed)
        A = from_dense(D)
        B = coo_to_csr(csr_to_coo(A))
        assert np.array_equal(A.indptr, B.indptr)
        assert np.array_equal(A.indices, B.indices)
        assert np.allclose(A.data, B.data)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_csr_csc_csr(self, seed):
        D = random_sparse_dense(11, 0.25, seed=seed)
        A = from_dense(D)
        B = csc_to_csr(csr_to_csc(A))
        assert np.allclose(B.to_dense(), D)

    def test_rectangular_csc(self):
        D = np.zeros((3, 5))
        D[0, 4] = 1.0
        D[2, 1] = 2.0
        A = from_dense(D) if D.shape[0] == D.shape[1] else None
        # from_dense handles rectangular via COO
        from repro.sparse import COOMatrix, coo_to_csr

        rows, cols = np.nonzero(D)
        A = coo_to_csr(COOMatrix(3, 5, rows, cols, D[rows, cols]))
        C = csr_to_csc(A)
        assert C.shape == (3, 5)
        assert np.allclose(C.to_dense(), D)

    def test_to_dense_dispatch(self):
        D = random_sparse_dense(6, 0.4, seed=9)
        A = from_dense(D)
        assert np.allclose(to_dense(A), D)
        assert np.allclose(to_dense(csr_to_csc(A)), D)
        assert np.allclose(to_dense(csr_to_coo(A)), D)
