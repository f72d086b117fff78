"""Superstep plans: structure, bit-identity, and sync-point economy."""

import numpy as np
import pytest

from helpers import random_csr
from repro.kernels import cached_analysis, clear_default_cache
from repro.machine import SimMachine, uniform_machine
from repro.runtime import threaded_trisolve_superstep
from repro.sched import (
    SchedOptions,
    build_superstep_plan,
    simulate_schedule,
    superstep_stats,
    validate_superstep_plan,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


@pytest.fixture(params=[17, 40, 60])
def F(request):
    return random_csr(request.param, density=0.2, seed=request.param)


@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("p", [1, 3, 8])
def test_plans_validate_and_cover_each_row_once(F, part, p):
    plan = build_superstep_plan(F, part, n_threads=p)
    assert validate_superstep_plan(plan, F) == []
    assert np.array_equal(np.sort(plan.rows), np.arange(F.n_rows))
    # step/thread partitions tile the same row array
    assert plan.step_ptr[0] == 0 and plan.step_ptr[-1] == F.n_rows
    assert plan.thread_ptr[-1] == F.n_rows


def test_fusion_respects_max_superstep_rows(F):
    opts = SchedOptions(max_superstep_rows=4)
    plan = build_superstep_plan(F, "lower", n_threads=4, opts=opts)
    assert validate_superstep_plan(plan, F) == []
    widths = np.diff(plan.step_ptr)
    # a single level wider than the cap must still be schedulable whole
    lev_widths = np.diff(cached_analysis(F).levels("lower").level_ptr)
    assert widths.max() <= max(4, lev_widths.max())


def test_chain_fuses_to_one_step():
    # a pure chain is serial anyway: the balance guard must let it fuse
    n = 64
    indptr = np.concatenate([[0], np.cumsum([1] + [2] * (n - 1))])
    indices = [0]
    for i in range(1, n):
        indices += [i - 1, i]
    from repro.sparse.csr import CSRMatrix

    F = CSRMatrix(n, n, indptr, np.asarray(indices), np.ones(len(indices)))
    plan = build_superstep_plan(
        F, "lower", n_threads=8, opts=SchedOptions(max_superstep_rows=n)
    )
    assert plan.n_steps == 1
    st = superstep_stats(plan)
    assert st["n_steps"] == 1 and st["n_levels"] == n


def test_threaded_executor_bit_identical(F):
    from repro.kernels.trisolve import factor_solver

    rng = np.random.default_rng(4)
    b = rng.standard_normal(F.n_rows)
    ref = factor_solver(F)(b)
    an = cached_analysis(F)
    y = threaded_trisolve_superstep(F, b, an.superstep_plan("lower", n_threads=3))
    x = threaded_trisolve_superstep(F, y, an.superstep_plan("upper", n_threads=3))
    assert np.array_equal(x, ref)


def test_sync_points_never_exceed_levels(F):
    # fusing can only merge boundaries: steps <= levels, in each part
    an = cached_analysis(F)
    for part in ("lower", "upper"):
        stats = superstep_stats(an.superstep_plan(part, n_threads=4))
        assert stats["n_steps"] <= an.plan(part).n_levels
        assert stats["sync_points"] == stats["n_steps"] - 1


def test_simulate_is_finite_and_positive(F):
    m = SimMachine(uniform_machine(n_cores=4), 4)
    t = simulate_schedule("superstep", F, m)
    assert np.isfinite(t) and t > 0.0


def test_plans_are_cached_per_options(F):
    an = cached_analysis(F)
    a = an.superstep_plan("lower", n_threads=4)
    b = an.superstep_plan("lower", n_threads=4)
    assert a is b  # same knobs -> same cached object
    c = an.superstep_plan("lower", n_threads=4, opts=SchedOptions(max_superstep_rows=2))
    assert c is not a


def test_superstep_simulation_uses_the_machine_thread_count(F, monkeypatch):
    from repro.sched import superstep

    built = []

    def recording(*args, n_threads, **kw):
        built.append(n_threads)
        return build_superstep_plan(*args, n_threads=n_threads, **kw)

    monkeypatch.setattr(superstep, "build_superstep_plan", recording)
    simulate_schedule("superstep", F, SimMachine(uniform_machine(n_cores=2), 2))
    assert built == [2, 2]  # one plan per part, for the machine's 2 threads
