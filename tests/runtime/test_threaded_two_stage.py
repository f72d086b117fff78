import time

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions, ilu_factor_sequential
from repro.runtime import threaded_factor_two_stage

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
        F = threaded_factor_two_stage(ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, p)
        assert np.array_equal(F.data, ref.data)

    def test_repeatable(self):
        ilu = staged(seed=2)
        d1 = threaded_factor_two_stage(ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, 4).data
        d2 = threaded_factor_two_stage(ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, 4).data
        assert np.array_equal(d1, d2)

    def test_no_lower_rows_still_works(self):
        ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(lower_method="none")))
        ilu.setup(random_csr(40, 0.12, seed=3))
        assert ilu.m == 40
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        F = threaded_factor_two_stage(ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, 3)
        assert np.array_equal(F.data, ref.data)

    def test_wrong_level_ptr_rejected(self):
        ilu = staged(seed=4)
        with pytest.raises(ValueError, match="upper rows"):
            threaded_factor_two_stage(
                ilu.A_perm, ilu.S_perm, ilu.level_ptr[:-1], ilu.m, 2
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
            threaded_factor_two_stage(
                A2, ilu.S_perm, ilu.level_ptr, ilu.m, 2, pivot_tol=1e-30
            )
        # fail-fast: peers stand down instead of spinning out their waits
        assert time.perf_counter() - t0 < 2.0

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_lower_stage_pivot_propagates(self, bad):
        from repro.core.iluk import PivotBreakdownError

        ilu = JavelinILU().setup(random_csr(60, 0.08, seed=0))
        c = lower_only_pivot(ilu)
        A2 = with_diagonal(ilu.A_perm, c, bad)
        with pytest.raises(PivotBreakdownError) as ei:
            threaded_factor_two_stage(A2, ilu.S_perm, ilu.level_ptr, ilu.m, 2)
        assert ei.value.kind == "nonfinite"
        assert ei.value.row == c

    def test_stalled_dependency_times_out(self, monkeypatch):
        from repro.runtime import pointtopoint, threaded_lower

        class LosesThreadZero(pointtopoint.ProgressBoard):
            def publish(self, thread, row):
                if thread != 0:
                    super().publish(thread, row)

        monkeypatch.setattr(threaded_lower, "ProgressBoard", LosesThreadZero)
        monkeypatch.setattr(threaded_lower, "WAIT_TIMEOUT", 0.2)
        ilu = staged(seed=1)
        with pytest.raises(TimeoutError, match="thread 0"):
            threaded_factor_two_stage(
                ilu.A_perm, ilu.S_perm, ilu.level_ptr, ilu.m, 2
            )


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
