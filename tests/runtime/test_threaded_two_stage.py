import sys
import threading
import time

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions, ilu_factor_sequential
from repro.core.upper import assign_round_robin
from repro.resilience import FaultPlan, FaultRunReport, drop_last_publish
from repro.runtime import threaded_factor

from helpers import lower_only_pivot, random_csr, with_diagonal


def staged(seed=0, alpha=8, n=60):
    ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=alpha)))
    ilu.setup(random_csr(n, 0.1, seed=seed))
    return ilu


class TestThreadedTwoStage:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_bit_identical_any_thread_count(self, p):
        ilu = staged(seed=1)
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        F = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, p)
        assert np.array_equal(F.data, ref.data)

    def test_repeatable(self):
        ilu = staged(seed=2)
        d1 = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, 4).data
        d2 = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, 4).data
        assert np.array_equal(d1, d2)

    def test_no_lower_rows_still_works(self):
        ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(lower_method="none")))
        ilu.setup(random_csr(40, 0.12, seed=3))
        assert ilu.m == 40
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        F = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, 3)
        assert np.array_equal(F.data, ref.data)

    def test_wrong_level_ptr_rejected(self):
        ilu = staged(seed=4)
        n = ilu.S_perm.n_rows
        with pytest.raises(ValueError, match="level_ptr covers"):
            threaded_factor(
                ilu.A_perm, ilu.S_perm, np.append(ilu.level_ptr, n + 1), 2
            )

    def test_pivot_error_propagates(self):
        from repro.core.iluk import PivotBreakdownError

        ilu = staged(seed=5)
        A2 = ilu.A_perm.copy()
        cols, _ = A2.row(0)
        p0 = int(np.searchsorted(cols, 0))
        A2.data[A2.indptr[0] + p0] = 0.0
        t0 = time.perf_counter()
        with pytest.raises(PivotBreakdownError):
            threaded_factor(A2, ilu.S_perm, ilu.level_ptr, 2, pivot_tol=1e-30)
        # fail-fast: peers stand down instead of spinning out their waits
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_lower_stage_pivot_propagates(self, bad):
        from repro.core.iluk import PivotBreakdownError

        ilu = JavelinILU().setup(random_csr(60, 0.08, seed=0))
        c = lower_only_pivot(ilu)
        A2 = with_diagonal(ilu.A_perm, c, bad)
        with pytest.raises(PivotBreakdownError) as ei:
            threaded_factor(A2, ilu.S_perm, ilu.level_ptr, 2)
        assert ei.value.kind == "nonfinite"
        assert ei.value.row == c

    def test_stalled_dependency_heals(self, monkeypatch):
        from repro.runtime import pointtopoint, threadpool

        class LosesThreadZero(pointtopoint.ProgressBoard):
            def publish(self, thread, row):
                if thread != 0:
                    super().publish(thread, row)

            def try_wait(self, producer_thread, row, *, timeout, stop=None):
                # thread 0 soon waits on thread 1, which is stuck behind
                # thread 0's lost rows; whichever wait began first would
                # time out first.  Only the waits on thread 0 may expire,
                # so the watchdog fires on the lost notifications.
                if producer_thread != 0:
                    timeout = 30.0
                return super().try_wait(producer_thread, row, timeout=timeout, stop=stop)

        monkeypatch.setattr(threadpool, "ProgressBoard", LosesThreadZero)
        ilu = staged(seed=1)
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        rep = FaultRunReport()
        F = threaded_factor(
            ilu.A_perm, ilu.S_perm, ilu.level_ptr, 2,
            fault_report=rep, watchdog_timeout=0.2,
        )
        assert np.array_equal(F.data, ref.data)
        assert rep.watchdog_engaged
        assert any(u == 0 for _, u, _ in rep.stalls)


class TestTwoStageWatchdog:
    """A stalled wait anywhere in the two-stage run heals bit for bit."""

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("all_of_thread_1", [False, True])
    def test_dropped_publishes_fall_back_bit_identical(self, p, all_of_thread_1):
        ilu = staged(seed=1)
        assert ilu.m < ilu.S_perm.n_rows
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        thread_of = assign_round_robin(ilu.level_ptr, p)
        k = int(np.count_nonzero(thread_of == 1)) if all_of_thread_1 else 1
        plan = FaultPlan(dropped=drop_last_publish(thread_of, 1, k=k))
        rep = FaultRunReport()
        F = threaded_factor(
            ilu.A_perm, ilu.S_perm, ilu.level_ptr, p,
            fault_plan=plan, fault_report=rep, watchdog_timeout=0.2,
        )
        assert np.array_equal(F.data, ref.data)
        assert rep.watchdog_engaged and rep.n_fallback_rows > 0
        # peers stand down once the watchdog fires: not every drop runs
        assert 1 <= rep.dropped_events <= k

    @pytest.mark.parametrize("p", [2, 4])
    def test_stage_wait_stall_after_peers_entered_their_blocks(self, monkeypatch, p):
        from repro.runtime import threadpool

        ilu = staged(seed=2)
        m, n = ilu.m, ilu.S_perm.n_rows
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        in_block = threading.Event()
        block_rows = []
        real_row, real_wait = threadpool.factor_row, threadpool.p2p_wait
        first = threading.Lock()

        def row(F, r, *args, window=None, **kw):
            real_row(F, r, *args, window=window, **kw)
            if window == (0, m):
                block_rows.append(r)
                in_block.set()

        def wait(board, u, need, name, **kw):
            if name == "wait.stage" and first.acquire(blocking=False):
                assert in_block.wait(5.0)  # a peer is past its stage wait
                return False
            return real_wait(board, u, need, name, **kw)

        monkeypatch.setattr(threadpool, "factor_row", row)
        monkeypatch.setattr(threadpool, "p2p_wait", wait)
        baseline = threading.active_count()
        rep = FaultRunReport()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers' flag writes finely
        try:
            F = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, p, fault_report=rep)
        finally:
            sys.setswitchinterval(interval)
        # bit identity: the peers' finished FACTOR_L phases were resumed,
        # not run twice (factor_row divides in place)
        assert np.array_equal(F.data, ref.data)
        assert threading.active_count() == baseline
        assert rep.watchdog_engaged and block_rows
        assert rep.n_fallback_rows == n - m  # every upper row was done


class TestBlockJacobiBaseline:
    def test_precondition_quality_below_ilu(self, rng):
        from repro.baselines import BlockJacobi
        from repro.solvers import cg
        from repro.matrices.generators import grid2d

        A = grid2d(16, shift=0.03)
        b = rng.standard_normal(A.n_rows)
        bj = BlockJacobi(block_size=16).setup(A)
        ilu = JavelinILU().setup(A)
        ilu.factor()
        r_bj = cg(A, b, M=bj.solve, tol=1e-8, maxiter=4000)
        r_ilu = cg(A, b, M=ilu.solve, tol=1e-8, maxiter=4000)
        assert r_bj.converged and r_ilu.converged
        assert r_ilu.iterations <= r_bj.iterations  # coupling pays off

    def test_apply_inverts_blocks_exactly(self, rng):
        from repro.baselines import BlockJacobi
        from repro.matrices.generators import grid2d

        A = grid2d(6)
        n = A.n_rows
        bj = BlockJacobi(block_size=n).setup(A)  # one block = exact solve
        b = rng.standard_normal(n)
        assert np.allclose(A.to_dense() @ bj.solve(b), b, atol=1e-8)

    def test_simulated_apply_scales_freely(self):
        from repro.baselines import BlockJacobi
        from repro.machine import SimMachine, uniform_machine

        A = random_csr(120, 0.05, seed=6)
        bj = BlockJacobi(block_size=8).setup(A)
        spec = uniform_machine(n_cores=8, socket_bw=1e15, single_thread_bw=1e15)
        t1 = bj.simulate_apply(SimMachine(spec, 1))
        t8 = bj.simulate_apply(SimMachine(spec, 8))
        assert t1 / t8 > 5.0  # zero-sync baseline scales near-linearly

    def test_setup_required(self):
        from repro.baselines import BlockJacobi

        with pytest.raises(RuntimeError, match="setup"):
            BlockJacobi().solve(np.ones(4))

    def test_invalid_block_size(self):
        from repro.baselines import BlockJacobi

        with pytest.raises(ValueError, match="block_size"):
            BlockJacobi(block_size=0)
