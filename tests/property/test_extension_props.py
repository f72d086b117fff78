"""Property-based tests on the extension modules (IC, dropping, SSOR,
Chow–Patel, spmv models)."""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.baselines import chow_patel_ilu
from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.ichol import ichol_factor
from repro.core.iluk import drop_row_fixed_pattern, ilu0_factor
from repro.kernels import cached_analysis
from repro.solvers import ssor_preconditioner
from repro.sparse import from_dense

from helpers import dense_reference


@st.composite
def spd_dense(draw, max_n=12):
    n = draw(st.integers(3, max_n))
    density = draw(st.floats(0.1, 0.5))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    B = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    D = B @ B.T
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    mask = (D != 0) | (D.T != 0) | np.eye(n, dtype=bool)
    return np.where(mask, D, 0.0)


@st.composite
def dominant_dense(draw, max_n=12):
    n = draw(st.integers(3, max_n))
    density = draw(st.floats(0.05, 0.45))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 2.0)
    return D


@settings(max_examples=25, deadline=None)
@given(spd_dense())
def test_ichol_residual_zero_on_lower_pattern(D):
    A = from_dense(D)
    L = ichol_factor(A)
    Ld = L.to_dense()
    R = Ld @ Ld.T - D
    mask = np.tril(D) != 0
    assert np.abs(R[mask]).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(spd_dense())
def test_ichol_diag_positive(D):
    L = ichol_factor(from_dense(D))
    assert np.all(L.diagonal() > 0)


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.floats(0.0, 2.0))
def test_drop_preserves_row_sum_in_milu(D, thresh_scale):
    A = from_dense(D)
    F = ilu0_factor(A)
    dp = cached_analysis(F).diag_pos()
    r = D.shape[0] // 2
    lo, hi = int(F.indptr[r]), int(F.indptr[r + 1])
    before = F.data[lo:hi].sum()
    drop_row_fixed_pattern(F, r, dp, threshold=thresh_scale, modified=True)
    assert np.isclose(F.data[lo:hi].sum(), before, atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.floats(0.001, 0.5))
def test_staged_tau_parity_property(D, tau):
    ilu = JavelinILU(
        JavelinOptions(
            tau=tau, schedule=ScheduleOptions(min_rows_per_level=3, lower_method="er")
        )
    ).setup(from_dense(D))
    res = ilu.factor()
    assert np.array_equal(res.F.data, dense_reference(ilu))


@settings(max_examples=20, deadline=None)
@given(spd_dense(), st.floats(0.3, 1.7), st.integers(0, 10_000))
def test_ssor_apply_symmetric(D, omega, seed):
    A = from_dense(D)
    M = ssor_preconditioner(A, omega=omega)
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(D.shape[0])
    v = rng.standard_normal(D.shape[0])
    assert np.isclose(float(u @ M(v)), float(v @ M(u)), rtol=1e-8, atol=1e-12)


@settings(max_examples=15, deadline=None)
@given(dominant_dense())
def test_chow_patel_many_sweeps_reach_ilu(D):
    A = from_dense(D)
    Fref = ilu0_factor(A)
    F = chow_patel_ilu(A, sweeps=D.shape[0] + 2)
    scale = max(float(np.abs(Fref.data).max()), 1.0)
    assert np.abs(F.data - Fref.data).max() / scale < 1e-6
