"""Property tests for the trisolve schedulers (repro.sched).

Three contracts, fuzzed over random factor patterns:

* every superstep plan is a valid topological execution whose steps
  and thread segments cover each row exactly once;
* every exact mode is bit-identical to the level-batched reference
  solve (superstep, elastic at ``tol == 0``, threaded executor);
* the elastic fixpoint converges: ``final_sweep`` sweeps suffice, and
  a positive tolerance lands within that tolerance of the reference.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.kernels.cache import SymbolicAnalysis
from repro.kernels.trisolve import factor_solver, trisolve_lower
from repro.runtime import threaded_trisolve_superstep
from repro.sched import (
    SchedOptions,
    build_elastic_schedule,
    build_superstep_plan,
    validate_superstep_plan,
)
from repro.sched.elastic import elastic_solve_part
from repro.sparse import from_dense
from repro.verify import replay_superstep_schedule


@st.composite
def factor_matrix(draw, max_n=28):
    """A random diagonally-dominant combined-factor stand-in."""
    n = draw(st.integers(5, max_n))
    density = draw(st.floats(0.08, 0.4))
    seed = draw(st.integers(0, 10_000))
    rng = np.random.default_rng(seed)
    D = (rng.random((n, n)) < density) * rng.standard_normal((n, n))
    np.fill_diagonal(D, 0.0)
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return from_dense(D)


@settings(max_examples=30, deadline=None)
@given(
    factor_matrix(),
    st.integers(1, 6),
    st.sampled_from(["lower", "upper"]),
    st.integers(2, 64),
)
def test_superstep_plans_are_valid_topological_executions(F, p, part, cap):
    plan = build_superstep_plan(
        F, part, n_threads=p, opts=SchedOptions(max_superstep_rows=cap)
    )
    assert validate_superstep_plan(plan, F) == []
    # exact-once coverage, at both granularities
    assert np.array_equal(np.sort(plan.rows), np.arange(F.n_rows))
    seen = np.concatenate(
        [plan.thread_rows(s, t) for s in range(plan.n_steps) for t in range(p)]
    )
    assert np.array_equal(np.sort(seen), np.arange(F.n_rows))
    # and the happens-before replay of the barrier schedule is race-free
    assert replay_superstep_schedule(F, plan).ok


@settings(max_examples=25, deadline=None)
@given(factor_matrix(), st.integers(1, 5), st.integers(0, 1000))
def test_superstep_solves_bit_identical(F, p, bseed):
    b = np.random.default_rng(bseed).standard_normal(F.n_rows)
    ref = factor_solver(F)(b)
    an = SymbolicAnalysis(F)
    pl = an.superstep_plan("lower", n_threads=p)
    pu = an.superstep_plan("upper", n_threads=p)
    y = threaded_trisolve_superstep(F, b, pl)
    x = threaded_trisolve_superstep(F, y, pu)
    assert np.array_equal(x, ref)


@settings(max_examples=25, deadline=None)
@given(factor_matrix(), st.integers(0, 6), st.integers(0, 1000))
def test_elastic_fixpoint_converges_exactly(F, staleness, bseed):
    b = np.random.default_rng(bseed).standard_normal(F.n_rows)
    sched = build_elastic_schedule(F, "lower", staleness=staleness)
    # final_sweep is a correct convergence bound: the exact mode runs
    # max(final_sweep)+1 sweeps and matches the reference bit-for-bit
    y_ref = trisolve_lower(F, b)
    assert np.array_equal(elastic_solve_part(F, b, sched, tol=0.0), y_ref)


@st.composite
def contractive_factor(draw, max_n=28):
    """A factor whose strict part has row sums < 1/2 (contractive sweeps).

    The early-stop bound is only meaningful when the corrections a
    stopped sweep leaves behind cannot be amplified by later sweeps —
    i.e. when the strict triangle is a contraction, which real ILU
    factors of dominant matrices are.
    """
    F = draw(factor_matrix(max_n=max_n))
    D = np.zeros((F.n_rows, F.n_rows))
    for r in range(F.n_rows):
        D[r, F.indices[F.indptr[r] : F.indptr[r + 1]]] = (
            F.data[F.indptr[r] : F.indptr[r + 1]]
        )
    diag = np.diag(D).copy()
    np.fill_diagonal(D, 0.0)
    row = np.abs(D).sum(axis=1)
    D *= 0.5 / np.maximum(1.0, row)[:, None]
    np.fill_diagonal(D, diag)
    return from_dense(D)


@settings(max_examples=20, deadline=None)
@given(contractive_factor(), st.integers(1, 6), st.floats(1e-12, 1e-8))
def test_elastic_tolerance_mode_lands_within_tolerance(F, staleness, tol):
    b = np.random.default_rng(7).standard_normal(F.n_rows)
    sched = build_elastic_schedule(F, "lower", staleness=staleness)
    y_ref = trisolve_lower(F, b)
    y = elastic_solve_part(F, b, sched, tol=tol)
    # the stop criterion bounds the last sweep's correction by
    # tol * max(1, ||x||_inf); a contractive strict part turns that
    # into a geometric tail, so a small multiple of tol must cover it
    scale = max(1.0, float(np.abs(y_ref).max()))
    assert float(np.abs(y - y_ref).max()) / scale <= 100.0 * tol
