"""Structural validators and the frozen-cache + debug-hook wiring."""

from dataclasses import replace

import numpy as np
import pytest

from repro.kernels import cached_analysis, clear_default_cache, hook
from repro.kernels.plans import build_trisolve_plan
from repro.kernels.trisolve import trisolve_lower
from repro.ordering.levelsets import level_schedule
from repro.sparse import from_dense
from repro.sparse.csr import CSRMatrix
from repro.verify import (
    InvariantViolation,
    disable_debug_validation,
    enable_debug_validation,
    validate,
    validate_analysis,
    validate_csr,
    validate_levels,
    validate_plan,
)

from helpers import random_csr


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_default_cache()
    yield
    disable_debug_validation()
    clear_default_cache()


def _copy_with(M, **kw):
    parts = {
        "indptr": M.indptr.copy(),
        "indices": M.indices.copy(),
        "data": M.data.copy(),
    }
    parts.update(kw)
    return CSRMatrix(
        M.n_rows, M.n_cols, parts["indptr"], parts["indices"], parts["data"],
        sort=False, check=False,
    )


def test_validate_csr_accepts_good_matrix():
    assert validate_csr(random_csr(20, 0.2, 1), require_diagonal=True)


def test_validate_csr_rejects_decreasing_indptr():
    M = random_csr(10, 0.3, 2)
    bad = M.indptr.copy()
    bad[3], bad[4] = bad[4] + 1, bad[3]
    with pytest.raises(InvariantViolation, match="indptr"):
        validate_csr(_copy_with(M, indptr=bad))


def test_validate_csr_rejects_unsorted_columns():
    M = random_csr(10, 0.4, 3)
    r = next(r for r in range(10) if M.indptr[r + 1] - M.indptr[r] >= 2)
    bad = M.indices.copy()
    lo = int(M.indptr[r])
    bad[lo], bad[lo + 1] = bad[lo + 1], bad[lo]
    with pytest.raises(InvariantViolation, match="unsorted"):
        validate_csr(_copy_with(M, indices=bad))


def test_validate_csr_rejects_missing_diagonal():
    D = np.array([[1.0, 2.0], [3.0, 0.0]])  # (1,1) structurally absent
    with pytest.raises(InvariantViolation, match="diagonal"):
        validate_csr(from_dense(D), require_diagonal=True)


def test_validate_levels_accepts_level_schedule():
    S = random_csr(25, 0.2, 4)
    ls = level_schedule(S)
    assert validate_levels(ls, S)


def test_validate_levels_rejects_corrupt_level_of():
    S = random_csr(25, 0.2, 5)
    ls = level_schedule(S)
    ls.level_of[int(ls.rows[0])] += 1  # first scheduled row claims a later level
    with pytest.raises(InvariantViolation):
        validate_levels(ls)


def test_validate_plan_round_trip_and_reject():
    S = random_csr(20, 0.25, 6)
    plan = build_trisolve_plan(S, "lower")
    assert validate_plan(plan, S)
    object.__setattr__(plan, "part", "sideways")
    with pytest.raises(InvariantViolation, match="part"):
        validate_plan(plan)


@pytest.mark.parametrize("part", ["lower", "upper"])
def test_validate_plan_rejects_corrupted_columns(part):
    """The compiled sweep follows ent_col unchecked, so validation must."""
    S = random_csr(40, 0.15, 16)
    plan = build_trisolve_plan(S, part)
    p = int(np.flatnonzero(np.diff(plan.ent_ptr))[-1])  # a row with entries
    e = int(plan.ent_ptr[p])
    for col, match in [(p, "levels before"), (plan.n + 5, "levels before"), (-1, "levels before")]:
        bad = plan.ent_col.copy()
        bad[e] = col
        with pytest.raises(InvariantViolation, match=match):
            validate_plan(replace(plan, ent_col=bad))
    bad = plan.ent_col.copy()
    bad[e] = (bad[e] + 1) % int(plan.level_ptr[np.searchsorted(plan.level_ptr, p, "right") - 1])
    assert validate_plan(replace(plan, ent_col=bad))  # still reads a solved row ...
    with pytest.raises(InvariantViolation, match="pattern's columns"):
        validate_plan(replace(plan, ent_col=bad), S)  # ... but not the stored one
    bad_ptr = plan.ent_ptr.copy()
    bad_ptr[-1] += 1
    with pytest.raises(InvariantViolation, match="ent_ptr"):
        validate_plan(replace(plan, ent_ptr=bad_ptr))


def test_validate_dispatches_on_type():
    S = random_csr(12, 0.3, 7)
    assert validate(S)
    with pytest.raises(TypeError):
        validate(object())


def test_cached_products_are_frozen_and_validate():
    S = random_csr(30, 0.2, 8)
    ana = cached_analysis(S)
    dp = ana.diag_pos()
    assert not dp.flags.writeable
    with pytest.raises(ValueError):
        dp[0] = 0
    ls = ana.levels("lower")
    assert not ls.rows.flags.writeable
    plan = ana.plan("upper")
    assert not plan.ent_idx.flags.writeable
    assert validate_analysis(ana)


def test_thawed_cache_array_fails_validation():
    S = random_csr(30, 0.2, 9)
    ana = cached_analysis(S)
    ana.diag_pos().flags.writeable = True  # simulate a hostile mutation
    with pytest.raises(InvariantViolation, match="frozen"):
        validate_analysis(ana)


def test_cache_lookup_hook_catches_thawed_entry():
    S = random_csr(30, 0.2, 10)
    ana = cached_analysis(S)
    ana.diag_pos()
    enable_debug_validation()
    assert cached_analysis(S) is ana  # clean entry passes through the hook
    ana.diag_pos().flags.writeable = True
    with pytest.raises(InvariantViolation):
        cached_analysis(S)


def test_kernel_dispatch_hook_validates_arguments():
    S = random_csr(20, 0.25, 11)
    plan = build_trisolve_plan(S, "lower")
    b = np.ones(S.n_rows)
    trisolve_lower(S, b, plan=plan)  # hooks off: no validation cost
    enable_debug_validation()
    trisolve_lower(S, b, plan=plan)  # valid arguments still pass
    bad = _copy_with(S)
    bad.indptr[2], bad.indptr[3] = bad.indptr[3] + 1, bad.indptr[2]
    with pytest.raises(InvariantViolation):
        trisolve_lower(bad, b, plan=plan)
    disable_debug_validation()
    # with the hook cleared the call validates nothing: the sweep reads
    # only the plan's gathers, so the corrupted indptr goes unnoticed
    assert hook._VALIDATOR is None
    assert np.array_equal(trisolve_lower(bad, b, plan=plan), trisolve_lower(S, b, plan=plan))


def test_kernel_hook_checks_the_plan_against_the_factor():
    """A plan of another pattern names columns the factor does not store."""
    S, T = random_csr(20, 0.25, 11), random_csr(20, 0.25, 12)
    b = np.ones(S.n_rows)
    enable_debug_validation()
    trisolve_lower(S, b, plan=build_trisolve_plan(S, "lower"))
    with pytest.raises(InvariantViolation, match="pattern"):
        trisolve_lower(S, b, plan=build_trisolve_plan(T, "lower"))


def test_cached_superstep_plan_validates_and_freezes():
    S = random_csr(40, 0.2, 12)
    ana = cached_analysis(S)
    plan = ana.superstep_plan("lower", n_threads=4)
    assert not plan.rows.flags.writeable
    assert validate_analysis(ana)
    # thaw + corrupt the cached step map: a dependency appears to run
    # in a later step than its consumer, which validate_analysis must
    # now reject via validate_superstep_plan
    plan.step_of.flags.writeable = True
    plan.step_of[:] = plan.step_of[::-1].copy()
    plan.step_of.flags.writeable = False
    with pytest.raises(InvariantViolation):
        validate_analysis(ana)


def test_cached_elastic_schedule_validates_and_freezes():
    S = random_csr(40, 0.2, 13)
    ana = cached_analysis(S)
    es = ana.elastic_schedule("lower", staleness=2)
    assert not es.final_sweep.flags.writeable
    assert validate_analysis(ana)
    fs = es.final_sweep
    assert fs.max() > 0  # the pattern has same-block chains to under-count
    fs.flags.writeable = True
    fs[int(np.argmax(fs))] = 0  # under-count: a sweep would commit stale reads
    fs.flags.writeable = False
    with pytest.raises(InvariantViolation):
        validate_analysis(ana)


def test_debug_hook_covers_scheduler_products():
    S = random_csr(40, 0.2, 14)
    ana = cached_analysis(S)
    ana.superstep_plan("upper", n_threads=2)
    enable_debug_validation()
    try:
        assert cached_analysis(S) is ana  # clean scheduler products pass
        ana.superstep_plan("upper", n_threads=2).thread_of.flags.writeable = True
        with pytest.raises(InvariantViolation):
            cached_analysis(S)
    finally:
        disable_debug_validation()
