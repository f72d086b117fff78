"""Fail-fast property of the real-thread executors (repro.runtime).

A row operation that raises at any row, under any thread count, must
end the whole team promptly: the worker's own exception reaches the
caller in well under a second (not after a wait timeout), and every
worker thread has been joined by then.
"""

import threading
import time
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern
from repro.kernels.cache import SymbolicAnalysis
from repro.ordering.levelsets import level_schedule
from repro.runtime import (
    threaded_factor,
    threaded_trisolve_lower,
    threaded_trisolve_superstep,
    threadpool,
)

from helpers import random_csr

_A0 = random_csr(48, 0.1, seed=3)
_PERM = level_schedule(_A0).permutation()
A = _A0.permute(_PERM, _PERM)
S = ilu0_pattern(A)
LEVEL_PTR = level_schedule(S).level_ptr
F = ilu_factor_sequential(A, S)
ILU = JavelinILU(JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=8)))
ILU.setup(random_csr(48, 0.1, seed=1))
N = A.n_rows


class Boom(Exception):
    """The planted row failure."""


def _raising(fn, bad, pos):
    """``fn`` with a failure planted at row ``bad`` (its ``pos``-th argument)."""

    def op(*args, **kw):
        if args[pos] == bad:
            raise Boom(bad)
        return fn(*args, **kw)

    return op


def _superstep(p, part):
    plan = SymbolicAnalysis(F).superstep_plan(part, n_threads=p)
    return lambda: threaded_trisolve_superstep(F, F.data[:N], plan)


# executor -> (run(p, part), [(module, row-op name, row arg position)])
EXECUTORS = {
    "factor": (
        lambda p, part: lambda: threaded_factor(A, S, LEVEL_PTR, p),
        [(threadpool, "factor_row", 1)],
    ),
    "trisolve_lower": (
        lambda p, part: lambda: threaded_trisolve_lower(F, F.data[:N], LEVEL_PTR, p),
        [(threadpool, "sweep_row", 3)],
    ),
    "two_stage": (
        lambda p, part: lambda: threaded_factor(ILU.A_perm, ILU.S_perm, ILU.level_ptr, p),
        [(threadpool, "factor_row", 1)],
    ),
    "superstep": (_superstep, [(threadpool, "sweep_row", 3)]),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(EXECUTORS)),
    p=st.integers(1, 4),
    part=st.sampled_from(["lower", "upper"]),
    bad=st.integers(0, N - 1),
)
def test_row_failure_reaches_caller_fast_and_joins_every_worker(name, p, part, bad):
    make, targets = EXECUTORS[name]
    run = make(p, part)
    baseline = threading.active_count()
    patches = [
        mock.patch.object(mod, attr, _raising(getattr(mod, attr), bad, pos))
        for mod, attr, pos in targets
    ]
    for patch in patches:
        patch.start()
    try:
        t0 = time.perf_counter()
        with pytest.raises(Boom) as err:
            run()
        elapsed = time.perf_counter() - t0
    finally:
        for patch in patches:
            patch.stop()
    assert err.value.args == (bad,)
    assert elapsed < 1.0
    assert threading.active_count() == baseline
