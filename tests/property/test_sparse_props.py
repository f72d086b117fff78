"""Property-based tests on the sparse substrate."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sparse import (
    CSR5Matrix,
    from_dense,
    is_pattern_symmetric,
    lower_pattern,
    pattern_union,
    spmv_csr,
    spmv_csr5,
    strict_upper_pattern,
    symmetrize_pattern,
)


@st.composite
def sparse_dense(draw, max_n=12):
    n = draw(st.integers(2, max_n))
    density = draw(st.floats(0.05, 0.6))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(D, rng.standard_normal(n) + 3.0)
    return D


@settings(max_examples=40, deadline=None)
@given(sparse_dense())
def test_dense_roundtrip(D):
    assert np.allclose(from_dense(D).to_dense(), D)


@settings(max_examples=40, deadline=None)
@given(sparse_dense())
def test_transpose_involution(D):
    A = from_dense(D)
    assert np.allclose(A.transpose().transpose().to_dense(), D)


@settings(max_examples=40, deadline=None)
@given(sparse_dense(), st.integers(0, 10_000))
def test_symmetric_permutation_preserves_values(D, pseed):
    A = from_dense(D)
    p = np.random.default_rng(pseed).permutation(D.shape[0])
    assert np.allclose(A.permute(p, p).to_dense(), D[np.ix_(p, p)])


@settings(max_examples=40, deadline=None)
@given(sparse_dense())
def test_lower_union_strict_upper_partitions(D):
    A = from_dense(D)
    assert lower_pattern(A).nnz + strict_upper_pattern(A).nnz == A.nnz


@settings(max_examples=40, deadline=None)
@given(sparse_dense())
def test_symmetrize_idempotent_and_symmetric(D):
    A = from_dense(D)
    S1 = symmetrize_pattern(A)
    S2 = symmetrize_pattern(S1)
    assert is_pattern_symmetric(S1)
    assert S1.nnz == S2.nnz


@settings(max_examples=40, deadline=None)
@given(sparse_dense(), sparse_dense())
def test_pattern_union_commutative_supset(D1, D2):
    n = min(D1.shape[0], D2.shape[0])
    A, B = from_dense(D1[:n, :n]), from_dense(D2[:n, :n])
    U1 = pattern_union(A, B)
    U2 = pattern_union(B, A)
    assert U1.nnz == U2.nnz
    assert U1.nnz >= max(A.nnz, B.nnz)


@settings(max_examples=40, deadline=None)
@given(sparse_dense(), st.integers(1, 20), st.integers(0, 10_000))
def test_csr5_spmv_equals_csr(D, tile_size, xseed):
    A = from_dense(D)
    x = np.random.default_rng(xseed).standard_normal(D.shape[1])
    A5 = CSR5Matrix(A, tile_size=tile_size)
    A5.validate()
    assert np.allclose(spmv_csr5(A5, x), spmv_csr(A, x), atol=1e-10)
