"""Property-based tests of the kernel layer's bit-identical contract.

The batched (level-set) kernels must agree with their scalar references
*exactly* — ``np.array_equal``, not ``allclose`` — on arbitrary ILU(0)
and ILU(k) factors, any right-hand side, and any thread count.  These
properties are what lets the references stand in for the production
kernels in every bit-identity test.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.iluk import ilu0_factor, iluk_factor
from repro.core.symbolic import row_factor_costs
from repro.core.upper import assign_dynamic, assign_round_robin
from repro.kernels import cached_analysis
from repro.kernels.des import upper_p2p_sim, upper_p2p_sim_scalar
from repro.kernels.trisolve import (
    trisolve_lower,
    trisolve_lower_serial,
    trisolve_upper,
    trisolve_upper_serial,
)
from repro.machine import SimMachine, uniform_machine
from repro.ordering.levelsets import level_schedule
from repro.sparse import from_dense


@st.composite
def dominant_dense(draw, max_n=18):
    n = draw(st.integers(4, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    D = rng.standard_normal((n, n))
    D[rng.random((n, n)) > 0.35] = 0.0
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return D


@settings(max_examples=30, deadline=None)
@given(dominant_dense(), st.integers(0, 2**31 - 1))
def test_trisolve_batched_bit_identical_ilu0(D, seed):
    F = ilu0_factor(from_dense(D))
    b = np.random.default_rng(seed).standard_normal(F.n_rows)
    y_s = trisolve_lower_serial(F, b)
    y_b = trisolve_lower(F, b)
    assert np.array_equal(y_s, y_b)
    assert np.array_equal(trisolve_upper_serial(F, y_s), trisolve_upper(F, y_b))


@settings(max_examples=20, deadline=None)
@given(dominant_dense(max_n=14), st.integers(1, 3), st.integers(0, 2**31 - 1))
def test_trisolve_batched_bit_identical_iluk(D, k, seed):
    F = iluk_factor(from_dense(D), k)
    b = np.random.default_rng(seed).standard_normal(F.n_rows)
    y_s = trisolve_lower_serial(F, b)
    y_b = trisolve_lower(F, b)
    assert np.array_equal(y_s, y_b)
    x_s = trisolve_upper_serial(F, y_s)
    x_b = trisolve_upper(F, y_b)
    assert np.array_equal(x_s, x_b)


@settings(max_examples=20, deadline=None)
@given(dominant_dense(max_n=14), st.integers(0, 2**31 - 1))
def test_trisolve_batched_across_rhs_dtypes(D, seed):
    """float32 / int right-hand sides promote identically in both sweeps."""
    F = ilu0_factor(from_dense(D))
    rng = np.random.default_rng(seed)
    for b in (
        rng.standard_normal(F.n_rows).astype(np.float32),
        rng.integers(-5, 5, size=F.n_rows),
    ):
        y_s = trisolve_lower_serial(F, b)
        y_b = trisolve_lower(F, b)
        assert np.array_equal(y_s, y_b)


@settings(max_examples=25, deadline=None)
@given(dominant_dense(max_n=16), st.integers(1, 8), st.sampled_from(["static", "dynamic"]))
def test_des_batched_bit_identical(D, p, policy):
    """Makespan and every finish time agree exactly with the scalar DES."""
    A = from_dense(D)
    S = ilu0_factor(A).pattern_copy()
    ls = level_schedule(S)
    perm = ls.permutation()
    Sp = S.permute(row_perm=perm, col_perm=perm)
    lsp = level_schedule(Sp)
    flops, touched = row_factor_costs(Sp)
    mach = SimMachine(uniform_machine(n_cores=max(p, 2)), p)
    m, ovh = int(lsp.level_ptr[-1]), 0.0
    if policy == "static":
        thread_of = assign_round_robin(lsp.level_ptr, p)
    else:
        thread_of, ovh = assign_dynamic(lsp.level_ptr, p, mach, flops, touched)
    mk_s, fin_s, tr_s = upper_p2p_sim_scalar(
        Sp, mach, thread_of, flops, touched, m=m, per_row_overhead=ovh
    )
    mk_b, fin_b, tr_b = upper_p2p_sim(
        Sp, mach, thread_of, flops, touched, m=m, per_row_overhead=ovh
    )
    assert mk_s == mk_b
    assert np.array_equal(fin_s, fin_b)
    assert tr_s.busy_time() == tr_b.busy_time()


@settings(max_examples=20, deadline=None)
@given(dominant_dense(max_n=14), st.integers(0, 2**31 - 1))
def test_levelized_solver_matches_scalar_composition(D, seed):
    """The cached-plan solver path equals scalar lower-then-upper exactly."""
    from repro.kernels.trisolve import factor_solver, trisolve_factor

    F = ilu0_factor(from_dense(D))
    b = np.random.default_rng(seed).standard_normal(F.n_rows)
    analysis = cached_analysis(F)
    assert np.array_equal(factor_solver(F, analysis)(b), trisolve_factor(F, b))
    # and the cache hands back the same analysis for the same pattern
    assert cached_analysis(F) is analysis
