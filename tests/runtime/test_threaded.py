import numpy as np
import pytest

from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern
from repro.kernels.trisolve import trisolve_lower_serial
from repro.ordering.levelsets import level_schedule
from repro.runtime import ProgressBoard, threaded_factor, threaded_trisolve_lower

from helpers import random_csr


def level_ordered(seed=0, n=60, density=0.08):
    A0 = random_csr(n, density, seed=seed)
    ls = level_schedule(A0)
    p = ls.permutation()
    A = A0.permute(p, p)
    S = ilu0_pattern(A)
    ls2 = level_schedule(S)
    return A, S, ls2


class TestProgressBoard:
    def test_publish_and_load(self):
        b = ProgressBoard(2)
        assert not b.try_wait(0, 0, timeout=0.0)
        b.publish(0, 3)
        assert b.try_wait(0, 3, timeout=0.0)
        assert b.try_wait(0, 2, timeout=0.0)  # later rows cover earlier ones
        assert not b.try_wait(0, 4, timeout=0.0)

    def test_publish_must_increase(self):
        b = ProgressBoard(1)
        b.publish(0, 5)
        with pytest.raises(ValueError, match="after"):
            b.publish(0, 4)

    def test_snapshot(self):
        b = ProgressBoard(3)
        b.publish(2, 1)
        assert b.try_wait(2, 1, timeout=0.0)
        assert not b.try_wait(0, 0, timeout=0.0)
        assert not b.try_wait(1, 0, timeout=0.0)


class TestThreadedFactor:
    @pytest.mark.parametrize("p", [1, 2, 4, 8])
    def test_matches_sequential_any_thread_count(self, p):
        A, S, ls = level_ordered(seed=1)
        Fref = ilu_factor_sequential(A, S)
        F = threaded_factor(A, S, ls.level_ptr, p)
        assert np.array_equal(F.data, Fref.data)

    def test_repeated_runs_deterministic(self):
        A, S, ls = level_ordered(seed=2)
        d1 = threaded_factor(A, S, ls.level_ptr, 4).data
        d2 = threaded_factor(A, S, ls.level_ptr, 4).data
        assert np.array_equal(d1, d2)

    def test_worker_error_propagates(self):
        A, S, ls = level_ordered(seed=4)
        # poison a pivot: make row 0's diagonal zero in A
        A2 = A.copy()
        cols, _ = A2.row(0)
        import numpy as _np

        p0 = int(_np.searchsorted(cols, 0))
        A2.data[A2.indptr[0] + p0] = 0.0
        from repro.core.iluk import PivotBreakdownError

        with pytest.raises(PivotBreakdownError):
            threaded_factor(A2, S, ls.level_ptr, 2, pivot_tol=1e-30)


class TestThreadedTrisolve:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_sequential(self, p, rng):
        A, S, ls = level_ordered(seed=5)
        F = ilu_factor_sequential(A, S)
        b = rng.standard_normal(A.n_rows)
        y_ref = trisolve_lower_serial(F, b)
        y = threaded_trisolve_lower(F, b, ls.level_ptr, p)
        assert np.array_equal(y, y_ref)

    def test_level_ptr_must_cover(self):
        A, S, ls = level_ordered(seed=6)
        F = ilu_factor_sequential(A, S)
        with pytest.raises(ValueError, match="every row"):
            threaded_trisolve_lower(F, np.ones(A.n_rows), ls.level_ptr[:-1], 2)
