import numpy as np
import pytest

from repro.sparse import CSR5Matrix, from_dense, spmv_csr, spmv_csr5, spmv_rows

from helpers import random_sparse_dense


class TestSpmvCSR:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense(self, seed, rng):
        D = random_sparse_dense(25, 0.2, seed=seed)
        x = rng.standard_normal(25)
        assert np.allclose(spmv_csr(from_dense(D), x), D @ x)

    def test_empty_rows(self):
        D = np.zeros((4, 4))
        D[1, 2] = 3.0
        y = spmv_csr(from_dense(D), np.ones(4))
        assert np.array_equal(y, [0, 3, 0, 0])

    def test_all_zero_matrix(self):
        y = spmv_csr(from_dense(np.zeros((3, 3))), np.ones(3))
        assert np.array_equal(y, np.zeros(3))

    def test_wrong_x_length(self):
        with pytest.raises(ValueError, match="length"):
            spmv_csr(from_dense(np.eye(3)), np.ones(4))

    def test_block_x_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            spmv_csr(from_dense(np.eye(3)), np.ones((3, 2)))


class TestSpmvCSR5:
    @pytest.mark.parametrize("tile_size", [1, 3, 8, 64])
    def test_matches_csr_kernel(self, tile_size, rng):
        D = random_sparse_dense(30, 0.2, seed=4)
        A = from_dense(D)
        x = rng.standard_normal(30)
        A5 = CSR5Matrix(A, tile_size=tile_size)
        assert np.allclose(spmv_csr5(A5, x), spmv_csr(A, x))

    def test_row_spanning_tiles_carries(self, rng):
        # a single dense row forces cross-tile carry accumulation
        D = np.zeros((3, 40))
        D[1, :] = rng.standard_normal(40)
        A = from_dense(D)
        x = rng.standard_normal(40)
        A5 = CSR5Matrix(A, tile_size=7)
        assert np.allclose(spmv_csr5(A5, x), D @ x)

    def test_wrong_x_length(self):
        A5 = CSR5Matrix(from_dense(np.eye(3)), tile_size=2)
        with pytest.raises(ValueError, match="length"):
            spmv_csr5(A5, np.ones(5))


class TestSpmvRows:
    def test_partial_product(self, rng):
        D = random_sparse_dense(12, 0.3, seed=5)
        x = rng.standard_normal(12)
        y = spmv_rows(from_dense(D), x, [2, 7])
        expect = np.zeros(12)
        expect[[2, 7]] = (D @ x)[[2, 7]]
        assert np.allclose(y, expect)

    def test_empty_row_list(self):
        D = random_sparse_dense(5, 0.4, seed=6)
        y = spmv_rows(from_dense(D), np.ones(5), [])
        assert np.array_equal(y, np.zeros(5))
