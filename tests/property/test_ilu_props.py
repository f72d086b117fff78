"""Property-based tests on the factorization kernels."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import (
    PivotBreakdownError,
    ilu0_factor,
    ilu_factor,
    ilu_factor_sequential,
    iluk_factor,
)
from repro.core.ilut import ilut_factor
from repro.core.symbolic import iluk_pattern, row_factor_costs
from repro.kernels import diag_positions
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


def _both_factors(A, S, **kw):
    """Outcome of ``ilu_factor_sequential`` and the batched ``ilu_factor``.

    An outcome is the factor's raw bytes, or the breakdown's row, the
    pivot's bytes (NaN compares equal to itself) and kind.
    """
    out = []
    for factor in (ilu_factor_sequential, ilu_factor):
        try:
            F = factor(A, S, **kw)
        except PivotBreakdownError as e:
            out.append(("breakdown", e.row, np.float64(e.value).tobytes(), e.kind))
        else:
            out.append(("factor", F.data.tobytes()))
    return out


@settings(max_examples=40, deadline=None)
@given(
    dominant_dense(max_n=18),
    st.sampled_from([0, 1, 2]),
    st.sampled_from([0.0, 0.05, 0.3]),
    st.booleans(),
)
def test_batched_factor_equals_scalar(D, k, tau, modified):
    """ILU(k), ILU(k, τ) and MILU: the batched factor has the scalar bits."""
    A = from_dense(D)
    thresh = tau * np.sqrt((D * D).sum(axis=1)) if tau > 0.0 else None
    scalar, batched = _both_factors(
        A, iluk_pattern(A, k), drop_threshold=thresh, modified=modified
    )
    assert scalar[0] == "factor"
    assert batched == scalar


PLANTED = {"zero": 0.0, "tiny": 1e-30, "nan": np.nan}


@settings(max_examples=40, deadline=None)
@given(
    dominant_dense(max_n=18),
    st.sampled_from([0, 1, 2]),
    st.lists(
        st.tuples(st.integers(0, 16), st.sampled_from(sorted(PLANTED))), min_size=1, max_size=3
    ),
)
def test_planted_pivots_break_down_identically(D, k, planted):
    """Zero, tiny and NaN pivots: both factors raise the sequential error.

    Each planted row loses its strict-lower entries, so its pivot is the
    planted value, and gains the last row as a dependent, so the pivot
    is read.  With several planted rows the batched factor may meet
    another one first; the (row, value, kind) must still be the row
    loop's.
    """
    n = D.shape[0]
    rows = sorted({r % (n - 1) for r, _ in planted})
    for r in rows:
        D[r, :r] = 0.0
        D[n - 1, r] = 1.0
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    A = from_dense(D)
    S = iluk_pattern(A, k)
    dp = diag_positions(A)
    for r, kind in planted:
        A.data[dp[r % (n - 1)]] = PLANTED[kind]
    scalar, batched = _both_factors(A, S, pivot_tol=1e-20)
    assert scalar[0] == "breakdown"
    assert batched == scalar
