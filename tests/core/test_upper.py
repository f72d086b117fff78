import numpy as np
import pytest

from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern, row_factor_costs
from repro.core.upper import (
    assign_round_robin,
    simulate_upper_barrier,
    simulate_upper_p2p,
)
from repro.machine import SimMachine, uniform_machine
from repro.ordering.levelsets import level_schedule

from helpers import random_csr


def level_ordered(seed=0, n=40, density=0.12):
    A0 = random_csr(n, density, seed=seed)
    ls = level_schedule(A0)
    p = ls.permutation()
    A = A0.permute(p, p)
    S = ilu0_pattern(A)
    ls2 = level_schedule(S)
    return A, S, ls2


class TestAssignment:
    def test_continuous_dealing(self):
        ptr = np.array([0, 3, 5, 9])
        t = assign_round_robin(ptr, 2)
        assert list(t) == [0, 1, 0, 1, 0, 1, 0, 1, 0]

    def test_single_thread_all_zero(self):
        t = assign_round_robin(np.array([0, 4]), 1)
        assert np.all(t == 0)

    def test_spreads_across_small_levels(self):
        """Runs of tiny levels must still use every thread."""
        ptr = np.arange(0, 17)  # 16 levels of one row each
        t = assign_round_robin(ptr, 4)
        assert set(t.tolist()) == {0, 1, 2, 3}


class TestNumericUpper:
    def test_matches_sequential_reference(self):
        # the upper stage's p2p schedule, run on real threads
        from repro.runtime import threaded_factor

        A, S, ls = level_ordered(seed=1)
        F = threaded_factor(A, S, ls.level_ptr, 3)
        Fref = ilu_factor_sequential(A, S)
        assert np.array_equal(F.data, Fref.data)


class TestSimulatedUpper:
    def _sim(self, sync, p, seed=2):
        A, S, ls = level_ordered(seed=seed)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=max(p, 1)), p)
        fn = simulate_upper_p2p if sync == "p2p" else simulate_upper_barrier
        return fn(S, ls.level_ptr, mach, flops, touched)

    def test_serial_equals_work_sum(self):
        A, S, ls = level_ordered(seed=3)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=1), 1)
        mk, finish, trace = simulate_upper_p2p(S, ls.level_ptr, mach, flops, touched)
        total = sum(mach.work_time(flops[r], touched[r]) for r in range(S.n_rows))
        assert mk == pytest.approx(total)

    def test_p2p_never_slower_than_barrier(self):
        for p in [2, 4, 8]:
            mk_p, _, _ = self._sim("p2p", p)
            mk_b, _, _ = self._sim("barrier", p)
            assert mk_p <= mk_b + 1e-12

    def test_parallel_not_slower_than_critical_path(self):
        A, S, ls = level_ordered(seed=4)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=8), 8)
        mk, finish, _ = simulate_upper_p2p(S, ls.level_ptr, mach, flops, touched)
        # critical path: longest dependency chain of work
        n = S.n_rows
        cp = np.zeros(n)
        for r in range(n):
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            deps = cols[cols < r]
            base = cp[deps].max() if deps.size else 0.0
            cp[r] = base + mach.work_time(flops[r], touched[r])
        assert mk >= cp.max() - 1e-12

    def test_trace_causality(self):
        A, S, ls = level_ordered(seed=5)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=4), 4)
        mk, finish, trace = simulate_upper_p2p(S, ls.level_ptr, mach, flops, touched)
        trace.check_no_overlap()
        deps = {}
        for r in range(S.n_rows):
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            deps[("row", r)] = [("row", int(c)) for c in cols[cols < r]]
        trace.check_causality(deps)

    def test_finish_times_monotone_per_thread(self):
        A, S, ls = level_ordered(seed=6)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=3), 3)
        _, finish, _ = simulate_upper_p2p(S, ls.level_ptr, mach, flops, touched)
        thread_of = assign_round_robin(ls.level_ptr, 3)
        for t in range(3):
            f = finish[thread_of == t]
            assert np.all(np.diff(f) > 0)

    def test_start_time_offsets_everything(self):
        A, S, ls = level_ordered(seed=7)
        flops, touched = row_factor_costs(S)
        mach = SimMachine(uniform_machine(n_cores=2), 2)
        mk0, _, _ = simulate_upper_p2p(S, ls.level_ptr, mach, flops, touched)
        mk5, _, _ = simulate_upper_p2p(
            S, ls.level_ptr, mach, flops, touched, start_time=5.0
        )
        assert mk5 == pytest.approx(mk0 + 5.0)

    def test_barrier_adds_per_level_cost(self):
        A, S, ls = level_ordered(seed=8)
        flops, touched = row_factor_costs(S)
        fast = SimMachine(uniform_machine(n_cores=4, barrier_base=0.0, barrier_per_log2p=0.0), 4)
        slow = SimMachine(uniform_machine(n_cores=4, barrier_base=1e-3, barrier_per_log2p=0.0), 4)
        mk_fast, _, _ = simulate_upper_barrier(S, ls.level_ptr, fast, flops, touched)
        mk_slow, _, _ = simulate_upper_barrier(S, ls.level_ptr, slow, flops, touched)
        n_barriers = ls.n_levels - 1
        assert mk_slow - mk_fast == pytest.approx(n_barriers * 1e-3, rel=0.01)
