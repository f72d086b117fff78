"""Property-based tests on the factorization kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import ilu0_factor, ilu_factor_sequential, iluk_factor
from repro.core.ilut import ilut_factor
from repro.core.symbolic import iluk_pattern, row_factor_costs
from repro.sparse import from_dense, split_lu


@st.composite
def dominant_dense(draw, max_n=14):
    n = draw(st.integers(3, max_n))
    density = draw(st.floats(0.05, 0.45))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return D


@settings(max_examples=30, deadline=None)
@given(dominant_dense())
def test_ilu0_residual_zero_on_pattern(D):
    """The defining ILU property: (LU - A) vanishes on the pattern of A."""
    A = from_dense(D)
    F = ilu0_factor(A)
    L, U = split_lu(F)
    R = L.to_dense() @ U.to_dense() - D
    assert np.abs(R[D != 0]).max() < 1e-9


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.integers(0, 3))
def test_iluk_pattern_contains_matrix(D, k):
    A = from_dense(D)
    S = iluk_pattern(A, k)
    for r in range(A.n_rows):
        a_cols, _ = A.row(r)
        s_cols, _ = S.row(r)
        assert set(a_cols.tolist()) <= set(s_cols.tolist())


@settings(max_examples=25, deadline=None)
@given(dominant_dense())
def test_full_fill_reproduces_matrix(D):
    A = from_dense(D)
    F = iluk_factor(A, D.shape[0])
    L, U = split_lu(F)
    assert np.allclose(L.to_dense() @ U.to_dense(), D, atol=1e-8)


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.floats(0.0, 0.3))
def test_ilut_keeps_diagonal_and_shrinks(D, tau):
    A = from_dense(D)
    F = ilut_factor(A, tau=tau)
    assert np.all(F.diagonal() != 0)
    full = ilut_factor(A, tau=0.0)
    assert F.nnz <= full.nnz


@settings(max_examples=20, deadline=None)
@given(dominant_dense(), st.sampled_from(["none", "er", "sr"]), st.integers(1, 30))
def test_javelin_stages_equal_reference(D, method, alpha):
    """Any lower method, any α: bit-identical to the sequential reference."""
    ilu = JavelinILU(
        JavelinOptions(
            schedule=ScheduleOptions(min_rows_per_level=alpha, lower_method=method)
        )
    )
    ilu.setup(from_dense(D))
    res = ilu.factor()
    ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
    assert np.array_equal(res.F.data, ref.data)


@settings(max_examples=25, deadline=None)
@given(dominant_dense())
def test_factor_costs_match_actual_flops(D):
    """The cost model counts exactly the flops the kernel executes."""
    A = from_dense(D)
    from repro.core.symbolic import ilu0_pattern

    S = ilu0_pattern(A)
    f, _ = row_factor_costs(S)
    # count actual operations by instrumenting a manual elimination
    n = A.n_rows
    Dm = D.copy()
    P = D != 0
    flops = np.zeros(n)
    for i in range(n):
        for c in range(i):
            if P[i, c]:
                flops[i] += 1
                for j in range(c + 1, n):
                    if P[c, j] and P[i, j]:
                        flops[i] += 2
    assert np.array_equal(f, flops)
