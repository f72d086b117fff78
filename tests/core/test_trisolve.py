import numpy as np
import pytest

from repro.core.iluk import ilu0_factor
from repro.core.trisolve import (
    simulate_trisolve_barrier,
    simulate_trisolve_p2p,
    simulate_trisolve_two_stage,
)
from repro.kernels.trisolve import trisolve_factor, trisolve_lower_serial, trisolve_upper_serial
from repro.machine import SimMachine, uniform_machine
from repro.kernels import backward_level_sets, forward_level_sets
from repro.ordering.levelsets import LevelSets
from repro.sparse import from_dense, split_lu
from repro.sparse.pattern import symmetrize_pattern

from helpers import random_csr, random_sparse_dense


class TestNumericSweeps:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_forward_solve(self, seed, rng):
        D = random_sparse_dense(20, 0.2, seed=seed)
        F = ilu0_factor(from_dense(D))
        L, _ = split_lu(F)
        b = rng.standard_normal(20)
        y = trisolve_lower_serial(F, b)
        assert np.allclose(L.to_dense() @ y, b, atol=1e-12)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_backward_solve(self, seed, rng):
        D = random_sparse_dense(20, 0.2, seed=seed)
        F = ilu0_factor(from_dense(D))
        _, U = split_lu(F)
        y = rng.standard_normal(20)
        x = trisolve_upper_serial(F, y)
        assert np.allclose(U.to_dense() @ x, y, atol=1e-10)

    def test_full_preconditioner_apply(self, rng):
        D = random_sparse_dense(15, 0.3, seed=3)
        F = ilu0_factor(from_dense(D))
        L, U = split_lu(F)
        b = rng.standard_normal(15)
        x = trisolve_factor(F, b)
        assert np.allclose(L.to_dense() @ (U.to_dense() @ x), b, atol=1e-9)

    def test_missing_diagonal_raises(self):
        from repro.sparse import CSRMatrix

        F = CSRMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])  # no diagonals
        with pytest.raises(ValueError, match="diagonal"):
            trisolve_upper_serial(F, np.ones(2))


class TestBackwardLevels:
    def test_diagonal_single_level(self):
        F = from_dense(np.diag([1.0, 2.0, 3.0]))
        bl = backward_level_sets(F)
        assert bl.n_levels == 1

    def test_chain_reverse_order(self):
        n = 5
        D = np.eye(n)
        for i in range(n - 1):
            D[i, i + 1] = 1.0
        bl = backward_level_sets(from_dense(D))
        assert list(bl.level_of) == [4, 3, 2, 1, 0]

    def test_levels_valid_topologically(self):
        A = random_csr(30, 0.15, seed=4)
        bl = backward_level_sets(A)
        for r in range(30):
            cols = A.indices[A.indptr[r] : A.indptr[r + 1]]
            deps = cols[cols > r]
            if deps.size:
                assert bl.level_of[r] > bl.level_of[deps].max()


class TestSimulatedSolves:
    def _setup(self, seed=5, n=40):
        F = ilu0_factor(random_csr(n, 0.12, seed=seed))
        ls = forward_level_sets(symmetrize_pattern(F))
        return F, ls

    def _machine(self, p):
        return SimMachine(uniform_machine(n_cores=max(p, 2)), p)

    def test_p2p_beats_barrier(self):
        F, ls = self._setup()
        for p in [2, 4, 8]:
            tb = simulate_trisolve_barrier(F, ls, self._machine(p))
            tp = simulate_trisolve_p2p(F, ls, self._machine(p))
            assert tp <= tb + 1e-12

    def test_forward_only_cheaper_than_both(self):
        F, ls = self._setup()
        m = self._machine(4)
        assert simulate_trisolve_p2p(F, ls, m, both=False) < simulate_trisolve_p2p(
            F, ls, m, both=True
        )

    def test_serial_p2p_equals_work_sum(self):
        F, ls = self._setup()
        m = self._machine(1)
        from repro.core.symbolic import row_solve_costs

        fl, tl = row_solve_costs(F, part="lower")
        t = simulate_trisolve_p2p(F, ls, m, both=False)
        total = sum(m.work_time(fl[r], tl[r]) for r in range(F.n_rows))
        assert t == pytest.approx(total)

    def test_two_stage_runs(self):
        """Two-stage solve with an actual lower block yields a finite time."""
        from repro.core import JavelinILU, JavelinOptions, ScheduleOptions

        ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=8)))
        ilu.setup(random_csr(50, 0.1, seed=6))
        m = self._machine(4)
        t = simulate_trisolve_two_stage(ilu.S_perm, ilu.level_ptr, ilu.m, m)
        assert np.isfinite(t) and t > 0

    def test_barrier_sweep_emits_no_superstep_spans(self):
        """A barrier-per-level sweep runs on the superstep DES kernel, but
        the obs trace keeps ``sched.superstep`` for real superstep plans."""
        from repro import obs
        from repro.sched import simulate_schedule

        F, ls = self._setup()
        m = self._machine(4)
        with obs.tracing() as rec:
            simulate_trisolve_barrier(F, ls, m)
        assert not [e for e in rec.events() if e.name.startswith("sched.superstep")]
        with obs.tracing() as rec:
            simulate_schedule("superstep", F, m)
        assert [e for e in rec.spans() if e.name == "sched.superstep"]

    def test_barrier_time_grows_with_levels(self):
        """A chain (many levels) pays many barriers; a diagonal pays none."""
        n = 30
        Dchain = np.eye(n)
        for i in range(1, n):
            Dchain[i, i - 1] = 0.5
        Fchain = from_dense(Dchain)
        Fdiag = from_dense(np.eye(n))
        m = self._machine(4)
        ls_c = forward_level_sets(symmetrize_pattern(Fchain))
        ls_d = forward_level_sets(symmetrize_pattern(Fdiag))
        assert simulate_trisolve_barrier(Fchain, ls_c, m) > simulate_trisolve_barrier(
            Fdiag, ls_d, m
        )


class TestNonTopologicalOrder:
    """A row scheduled before one of its dependencies is an error.

    The old hand-written p2p sweep skipped a dependency that had not run
    yet, so a reversed chain priced as four independent rows.
    """

    def _chain(self, n=4):
        D = np.eye(n) * 2.0
        for i in range(1, n):
            D[i, i - 1] = 0.5
        return from_dense(D)

    def _levels(self, groups):
        rows = np.concatenate([np.asarray(g, dtype=np.int64) for g in groups])
        level_ptr = np.cumsum([0] + [len(g) for g in groups]).astype(np.int64)
        level_of = np.empty(rows.size, dtype=np.int64)
        level_of[rows] = np.repeat(np.arange(len(groups)), np.diff(level_ptr))
        return LevelSets(level_of=level_of, level_ptr=level_ptr, rows=rows)

    def _machine(self):
        return SimMachine(uniform_machine(n_cores=2), 2)

    def test_p2p_reversed_levels_raise(self):
        F = self._chain()
        with pytest.raises(ValueError, match="row 3 is scheduled before its dependency 2"):
            simulate_trisolve_p2p(F, self._levels([[3], [2], [1], [0]]), self._machine())

    def test_barrier_same_level_dependency_raises(self):
        F = self._chain()
        with pytest.raises(ValueError, match="row 1 .* its dependency 0"):
            simulate_trisolve_barrier(F, self._levels([[0, 1], [2], [3]]), self._machine())

    def test_barrier_later_level_dependency_raises(self):
        F = self._chain()
        with pytest.raises(ValueError, match="row 2 .* its dependency 1"):
            simulate_trisolve_barrier(F, self._levels([[0], [2], [1], [3]]), self._machine())
