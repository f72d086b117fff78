"""Dispatch by scheduler name and the cross-scheduler exactness contract."""

import numpy as np
import pytest

from helpers import random_csr
from repro.kernels.trisolve import factor_solver
from repro.kernels import cached_analysis, clear_default_cache
from repro.machine import SimMachine, gpulike, uniform_machine
from repro.runtime import threaded_trisolve_superstep
from repro.sched import (
    SCHEDULER_NAMES,
    elastic_solve,
    simulate_schedule,
)


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_default_cache()
    yield
    clear_default_cache()


@pytest.fixture
def F():
    return random_csr(45, density=0.18, seed=9)


def test_functions_cover_the_cli_vocabulary(F):
    m = SimMachine(uniform_machine(n_cores=4), 4)
    for name in SCHEDULER_NAMES:
        assert simulate_schedule(name, F, m, both=False) > 0.0, name


def test_unknown_scheduler_raises(F):
    m = SimMachine(uniform_machine(n_cores=4), 4)
    with pytest.raises(ValueError, match="unknown scheduler"):
        simulate_schedule("bulk-sync", F, m)


def test_all_exact_modes_bit_identical(F):
    """The superstep executor and exact elastic match the level sweep.

    p2p, barrier and syncfree solve through ``factor_solver``
    itself; superstep and elastic run their own numerics.
    """
    rng = np.random.default_rng(0)
    b = rng.standard_normal(F.n_rows)
    ref = factor_solver(F)(b)
    an = cached_analysis(F)
    y = threaded_trisolve_superstep(F, b, an.superstep_plan("lower", n_threads=4))
    x = threaded_trisolve_superstep(F, y, an.superstep_plan("upper", n_threads=4))
    assert np.array_equal(x, ref), "superstep"
    assert np.array_equal(elastic_solve(F, b), ref), "elastic"  # elastic_tol=0


def test_every_scheduler_simulates_on_cpu_and_gpulike(F):
    for spec, p in [(uniform_machine(n_cores=4), 4), (gpulike(), 64)]:
        m = SimMachine(spec, p)
        for name in SCHEDULER_NAMES:
            t = simulate_schedule(name, F, m)
            assert np.isfinite(t) and t > 0.0, (name, spec.name)

