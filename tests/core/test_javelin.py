import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import ilu0_factor, ilu_factor_sequential
from repro.kernels.trisolve import trisolve_factor
from repro.machine import SimMachine, haswell, uniform_machine
from repro.resilience import FaultPlan, FaultRunReport
from repro.sparse import from_dense

from helpers import random_csr, random_sparse_dense


def opts(alpha=8, lower_method="auto", **kw):
    return JavelinOptions(
        schedule=ScheduleOptions(min_rows_per_level=alpha, lower_method=lower_method),
        **kw,
    )


class TestSetup:
    def test_rejects_rectangular(self):
        from repro.sparse import COOMatrix, coo_to_csr

        A = coo_to_csr(COOMatrix(2, 3, [0, 1], [0, 1], [1.0, 1.0]))
        with pytest.raises(ValueError, match="square"):
            JavelinILU().setup(A)

    def test_rejects_missing_diagonal(self):
        D = random_sparse_dense(8, 0.3, seed=1)
        D[3, 3] = 0.0
        with pytest.raises(ValueError, match="Dulmage-Mendelsohn"):
            JavelinILU().setup(from_dense(D))

    def test_stats_before_setup_raises(self):
        with pytest.raises(RuntimeError, match="setup"):
            JavelinILU().stats()

    def test_factor_before_setup_raises(self):
        with pytest.raises(RuntimeError, match="setup"):
            JavelinILU().factor()

    def test_solve_before_factor_raises(self):
        ilu = JavelinILU().setup(random_csr(10, 0.3, seed=2))
        with pytest.raises(RuntimeError, match="factor"):
            ilu.solve(np.ones(10))

    def test_stats_fields(self):
        ilu = JavelinILU(opts()).setup(random_csr(30, 0.15, seed=3))
        st = ilu.stats()
        assert st["n"] == 30
        assert st["n_upper_levels"] <= st["n_levels"]
        assert st["n_lower_rows"] + sum(len(l) for l in ilu.schedule.upper_levels) == 30


class TestFactorParity:
    @pytest.mark.parametrize("method", ["none", "er", "sr"])
    def test_bitwise_equal_to_permuted_reference(self, method):
        ilu = JavelinILU(opts(lower_method=method)).setup(random_csr(45, 0.1, seed=4))
        res = ilu.factor()
        ref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        assert np.array_equal(res.F.data, ref.data)
        assert ilu.resolved_lower_method() == method

    def test_methods_agree_with_each_other(self):
        A = random_csr(45, 0.1, seed=5)
        datas = []
        for method in ["none", "er", "sr"]:
            ilu = JavelinILU(opts(lower_method=method)).setup(A)
            datas.append(ilu.factor().F.data)
        assert np.array_equal(datas[0], datas[1])
        assert np.array_equal(datas[1], datas[2])

    def test_factor_in_original_order_close_to_direct(self):
        """Level permutation is a topological reorder: same factor values
        up to floating-point reassociation."""
        A = random_csr(40, 0.12, seed=6)
        back = JavelinILU(opts()).setup(A).factor().factor_in_original_order()
        direct = ilu0_factor(A)
        assert np.array_equal(back.indices, direct.indices)
        assert np.allclose(back.data, direct.data, atol=1e-10)

    def test_iluk_fill_level(self):
        A = random_csr(25, 0.15, seed=7)
        ilu0 = JavelinILU(JavelinOptions(fill_level=0)).setup(A)
        ilu2 = JavelinILU(JavelinOptions(fill_level=2)).setup(A)
        assert ilu2.S_perm.nnz >= ilu0.S_perm.nnz


class TestSolve:
    def test_solve_matches_unpermuted_apply(self, rng):
        A = random_csr(30, 0.15, seed=9)
        ilu = JavelinILU(opts()).setup(A)
        ilu.factor()
        b = rng.standard_normal(30)
        x = ilu.solve(b)
        x_direct = trisolve_factor(ilu0_factor(A), b)
        assert np.allclose(x, x_direct, atol=1e-9)

    def test_solve_is_linear(self, rng):
        ilu = JavelinILU(opts()).setup(random_csr(25, 0.2, seed=10))
        ilu.factor()
        b1 = rng.standard_normal(25)
        b2 = rng.standard_normal(25)
        assert np.allclose(
            ilu.solve(b1 + 2 * b2), ilu.solve(b1) + 2 * ilu.solve(b2), atol=1e-10
        )

    def test_preconditioner_reduces_residual(self, rng):
        """M⁻¹A should be much closer to I than A is (dominant matrix)."""
        D = random_sparse_dense(25, 0.15, seed=11, dominance=3.0)
        A = from_dense(D)
        ilu = JavelinILU(opts()).setup(A)
        ilu.factor()
        X = np.column_stack([ilu.solve(D[:, j]) for j in range(25)])
        assert np.linalg.norm(X - np.eye(25)) < np.linalg.norm(
            D / np.linalg.norm(D, 2) - np.eye(25)
        )


class TestSimulation:
    def _ilu(self, seed=12):
        return JavelinILU(opts()).setup(random_csr(60, 0.08, seed=seed))

    def test_report_fields(self):
        ilu = self._ilu()
        rep = ilu.simulate_factor(SimMachine(haswell(), 4))
        assert rep.total >= rep.upper >= 0
        assert rep.total == pytest.approx(rep.upper + rep.lower)
        assert rep.n_threads == 4

    def test_ls_only_has_no_lower_time(self):
        rep = self._ilu().simulate_factor(SimMachine(haswell(), 4), lower=False)
        assert rep.lower == 0.0
        assert rep.method == "none"

    def test_p2p_not_slower_than_barrier(self):
        ilu = self._ilu()
        for p in [2, 8, 14]:
            m = SimMachine(haswell(), p)
            tp = ilu.simulate_factor(m, sync="p2p", lower=False).total
            tb = ilu.simulate_factor(m, sync="barrier", lower=False).total
            assert tp <= tb + 1e-12

    def test_method_resolution_by_thread_count(self):
        ilu = self._ilu()
        nlow = ilu.schedule.n_lower_rows
        assert nlow > 0
        rep_small_p = ilu.simulate_factor(SimMachine(haswell(), 2))
        rep_big_p = ilu.simulate_factor(SimMachine(haswell(), 28))
        assert rep_small_p.method == ("er" if nlow >= 2 else "sr")
        if nlow < 28:
            assert rep_big_p.method == "sr"

    def test_trisolve_methods_ordering(self):
        ilu = self._ilu()
        m = SimMachine(haswell(), 8)
        tb = ilu.simulate_trisolve(m, method="barrier")
        tp = ilu.simulate_trisolve(m, method="p2p")
        t2 = ilu.simulate_trisolve(m, method="two_stage")
        assert tp <= tb + 1e-12
        assert np.isfinite(t2)

    def test_trisolve_unknown_method(self):
        with pytest.raises(ValueError, match="unknown trisolve"):
            self._ilu().simulate_trisolve(SimMachine(haswell(), 2), method="zzz")

    @pytest.mark.parametrize("sync", ["P2P", "superstep", "sync-free"])
    def test_factor_unknown_sync(self, sync):
        with pytest.raises(ValueError, match="unknown sync model"):
            self._ilu().simulate_factor(SimMachine(haswell(), 2), sync=sync)

    @pytest.mark.parametrize(
        "kw",
        [
            {"sched_policy": "dynamic"},
            {"sched_chunk": 4},
            {"fault_plan": FaultPlan(spin_faults=frozenset({3}))},
            {"fault_report": FaultRunReport()},
        ],
    )
    def test_barrier_rejects_p2p_only_options(self, kw):
        """The barrier DES has no dealing policy and no fault injection."""
        ilu = self._ilu()
        m = SimMachine(haswell(), 4)
        with pytest.raises(ValueError, match="only to sync='p2p'"):
            ilu.simulate_factor(m, sync="barrier", lower=False, **kw)
        assert np.isfinite(ilu.simulate_factor(m, sync="p2p", lower=False, **kw).total)

    def test_simulation_deterministic(self):
        ilu = self._ilu()
        m = SimMachine(haswell(), 8)
        assert ilu.simulate_factor(m).total == ilu.simulate_factor(m).total
