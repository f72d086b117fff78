"""Elastic (stale-synchronous) schedules: exactness, tolerance, structure."""

import numpy as np
import pytest

from helpers import random_csr
from repro.kernels import cached_analysis, clear_default_cache
from repro.kernels.trisolve import factor_solver, trisolve_lower
from repro.sched import (
    SchedOptions,
    build_elastic_schedule,
    effective_sync_passes,
    elastic_solve,
)
from repro.sched.elastic import elastic_solve_part


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


@pytest.fixture
def F():
    return random_csr(50, density=0.2, seed=11)


@pytest.mark.parametrize("staleness", [0, 1, 3, 8])
def test_exact_mode_bit_identical_for_every_staleness(F, staleness):
    rng = np.random.default_rng(1)
    b = rng.standard_normal(F.n_rows)
    ref = factor_solver(F)(b)
    x = elastic_solve(F, b, opts=SchedOptions(staleness=staleness))
    assert np.array_equal(x, ref)


def test_staleness_zero_needs_one_sweep(F):
    sched = build_elastic_schedule(F, "lower", staleness=0)
    # blocks of one level: no intra-block staleness, no corrections
    assert sched.n_sweeps == 1
    assert int(sched.final_sweep.max()) == 0


def test_final_sweep_is_a_fixpoint_bound(F):
    sched = build_elastic_schedule(F, "lower", staleness=3)
    fs = sched.final_sweep
    blk = sched.block_of
    indptr, indices = F.indptr, F.indices
    for r in range(F.n_rows):
        for c in indices[indptr[r] : indptr[r + 1]]:
            if c < r:
                assert fs[r] >= fs[c] + (blk[c] == blk[r])


def _final_sweep_rows(pattern, sched):
    """Reference: the correction-depth recursion, one row at a time in level order."""
    indptr, indices = pattern.indptr, pattern.indices
    final_sweep = np.zeros(sched.n, dtype=np.int64)
    for r in sched.rows:
        cols = indices[indptr[r] : indptr[r + 1]]
        deps = cols[cols < r] if sched.part == "lower" else cols[cols > r]
        if deps.size:
            stale = sched.block_of[deps] == sched.block_of[r]
            final_sweep[r] = int((final_sweep[deps] + stale).max())
    return final_sweep


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("staleness", [0, 1, 4])
def test_final_sweep_matches_the_row_recursion(seed, staleness):
    S = random_csr(80, density=0.08 + 0.04 * seed, seed=20 + seed)
    for part in ("lower", "upper"):
        sched = build_elastic_schedule(S, part, staleness=staleness)
        assert np.array_equal(sched.final_sweep, _final_sweep_rows(S, sched)), part


def test_tol_mode_stops_early_and_stays_close(F):
    rng = np.random.default_rng(2)
    b = rng.standard_normal(F.n_rows)
    sched = cached_analysis(F).elastic_schedule("lower", staleness=4)
    exact = elastic_solve_part(F, b, sched, tol=0.0)
    loose = elastic_solve_part(F, b, sched, tol=1e-10)
    y_ref = trisolve_lower(F, b)
    assert np.array_equal(exact, y_ref)
    scale = max(1.0, float(np.abs(y_ref).max()))
    assert float(np.abs(loose - y_ref).max()) / scale < 1e-8


def _elastic_solve_part_scalar(F, rhs, sched, *, tol=0.0, max_sweeps=128):
    """Reference: ``elastic_solve_part`` with one Python loop per row."""
    rhs = np.asarray(rhs, dtype=np.float64)
    if rhs.shape != (sched.n,):
        raise ValueError(f"right-hand side of shape {rhs.shape} does not match {sched.n} rows")
    x = np.zeros(sched.n)
    data, indices = F.data, F.indices
    n_sweeps = min(sched.n_sweeps, int(max_sweeps)) if sched.n else 0
    lrows, level_ptr = sched.rows, sched.level_ptr
    for k in range(n_sweeps):
        active_mask = sched.final_sweep >= k
        if not active_mask.any():
            break
        delta = 0.0
        for b in range(sched.n_blocks):
            lo, hi = sched.block_levels(b)
            brows = lrows[int(level_ptr[lo]) : int(level_ptr[hi])]
            brows = brows[active_mask[brows]]
            if brows.size == 0:
                continue
            snap = x.copy()  # block-entry snapshot: the stale reads
            for lev in range(lo, hi):
                rows_l = brows[sched.level_of[brows] == lev]
                for r in rows_l:
                    r = int(r)
                    s = 0.0
                    for e in sched.ent_idx[sched.ent_ptr[r] : sched.ent_ptr[r + 1]]:
                        c = int(indices[e])
                        v = snap[c] if sched.block_of[c] == b else x[c]
                        s += data[e] * v
                    new = rhs[r] - s
                    if sched.part == "upper":
                        new = new / data[sched.diag_idx[r]]
                    if tol > 0.0:
                        delta = max(delta, abs(new - x[r]))
                    x[r] = new
        if tol > 0.0 and delta <= tol * max(1.0, float(np.abs(x).max())):
            break
    return x


def test_scalar_and_batched_backends_agree(F):
    rng = np.random.default_rng(5)
    b = rng.standard_normal(F.n_rows)
    for part in ("lower", "upper"):
        sched = cached_analysis(F).elastic_schedule(part, staleness=2)
        assert sched.n_sweeps > 1  # the stale reads get corrected
        x = elastic_solve_part(F, b, sched)
        assert np.array_equal(x, _elastic_solve_part_scalar(F, b, sched)), part


@pytest.mark.parametrize("backend", ["scalar", "batched"])
@pytest.mark.parametrize("shape", [(49,), (51,), (50, 1), ()])
def test_wrong_rhs_shape_rejected(F, backend, shape):
    """Regression: an oversized rhs was truncated and a short one hit IndexError.

    ``batched`` is ``elastic_solve_part``; ``scalar`` is the row-loop
    reference above, which keeps the same contract.
    """
    solve = elastic_solve_part if backend == "batched" else _elastic_solve_part_scalar
    sched = cached_analysis(F).elastic_schedule("lower", staleness=2)
    with pytest.raises(ValueError, match="does not match 50 rows"):
        solve(F, np.ones(shape), sched)


def test_max_sweeps_truncation_is_inexact_but_finite(F):
    rng = np.random.default_rng(6)
    b = rng.standard_normal(F.n_rows)
    sched = cached_analysis(F).elastic_schedule("lower", staleness=8)
    if sched.n_sweeps > 1:
        x = elastic_solve_part(F, b, sched, max_sweeps=1)
        assert np.isfinite(x).all()


def test_sync_points_counts_active_blocks(F):
    tight = effective_sync_passes(F, "elastic", SchedOptions(staleness=0))
    loose = effective_sync_passes(F, "elastic", SchedOptions(staleness=8))
    an = cached_analysis(F)
    n_levels = an.plan("lower").n_levels + an.plan("upper").n_levels
    # staleness 0: one sweep, one sync per level-block -> exactly the levels
    assert tight == n_levels
    assert loose >= 1


def _sync_points_loop(F, opts):
    """Reference: one sync per (sweep, block with an active row), by loop."""
    total = 0
    for part in ("lower", "upper"):
        sched = cached_analysis(F).elastic_schedule(part, staleness=opts.staleness)
        fs, lrows, level_ptr = sched.final_sweep, sched.rows, sched.level_ptr
        for k in range(min(sched.n_sweeps, opts.max_sweeps)):
            for b in range(sched.n_blocks):
                lo, hi = sched.block_levels(b)
                brows = lrows[int(level_ptr[lo]) : int(level_ptr[hi])]
                if (fs[brows] >= k).any():
                    total += 1
    return total


@pytest.mark.parametrize("max_sweeps", [1, 3, 128])
@pytest.mark.parametrize("staleness", [0, 1, 4, 8])
@pytest.mark.parametrize("seed", [11, 12])
def test_sync_points_match_the_block_loop(staleness, max_sweeps, seed):
    F = random_csr(80, density=0.1, seed=seed)
    opts = SchedOptions(staleness=staleness, max_sweeps=max_sweeps)
    assert effective_sync_passes(F, "elastic", opts) == _sync_points_loop(F, opts)


def test_schedules_cached_per_staleness(F):
    an = cached_analysis(F)
    assert an.elastic_schedule("lower", staleness=2) is an.elastic_schedule(
        "lower", staleness=2
    )
    assert an.elastic_schedule("lower", staleness=2) is not an.elastic_schedule(
        "lower", staleness=3
    )
