"""Fault injection: plans, DES parity, watchdogs, bit-identical results."""

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import ilu0_pattern, row_factor_costs
from repro.kernels.trisolve import trisolve_lower_serial
from repro.core.upper import assign_round_robin, simulate_upper_p2p
from repro.kernels.des import upper_p2p_sim, upper_p2p_sim_scalar
from repro.machine import SimMachine, TaskGraph, simulate_task_graph, uniform_machine
from repro.ordering.levelsets import level_schedule
from repro.resilience import FaultPlan, FaultRunReport, drop_last_publish
from repro.runtime import (
    FaultInjectedBoard,
    ProgressBoard,
    threaded_factor,
    threaded_trisolve_lower,
)
from repro.sparse import from_dense

from helpers import random_csr


def _staged(seed=0, n=80, density=0.06):
    """A level-ordered (A, S, level_ptr) triple for the upper stage."""
    A0 = random_csr(n, density, seed=seed)
    ls = level_schedule(A0)
    p = ls.permutation()
    A = A0.permute(p, p)
    S = ilu0_pattern(A)
    return A, S, level_schedule(S)


def _sim_inputs(seed=0, n=80):
    A, S, ls = _staged(seed=seed, n=n)
    flops, touched = row_factor_costs(S)
    return S, ls.level_ptr, flops, touched


def _real_wait_pairs(S, level_ptr, n_threads, count=4):
    """(thread, row) pairs that some consumer actually waits on."""
    from repro.kernels.plans import build_producer_csr

    m = int(level_ptr[-1])
    thread_of = assign_round_robin(level_ptr, n_threads)
    ptr, prod_u, prod_latest = build_producer_csr(S, m, thread_of)
    pairs = []
    for j in range(len(prod_u)):
        pair = (int(prod_u[j]), int(prod_latest[j]))
        if pair not in pairs:
            pairs.append(pair)
        if len(pairs) >= count:
            break
    return pairs


# ----------------------------------------------------------------------
# FaultPlan
# ----------------------------------------------------------------------
class TestFaultPlan:
    def test_seeded_reproducible(self):
        a = FaultPlan.seeded(8, seed=7, n_stragglers=2, n_rows=50, spin_fault_frac=0.1)
        b = FaultPlan.seeded(8, seed=7, n_stragglers=2, n_rows=50, spin_fault_frac=0.1)
        assert a == b
        c = FaultPlan.seeded(8, seed=8, n_stragglers=2, n_rows=50, spin_fault_frac=0.1)
        assert a.stragglers != c.stragglers or a.spin_faults != c.spin_faults

    def test_rate_default_and_validation(self):
        plan = FaultPlan(stragglers={1: 4.0})
        assert plan.rate(0) == 1.0
        assert plan.rate(1) == 4.0
        with pytest.raises(ValueError, match=">= 1"):
            FaultPlan(stragglers={0: 0.5}).rate(0)

    def test_is_dropped_and_with_(self):
        plan = FaultPlan(dropped=frozenset({(1, 9)}))
        assert plan.is_dropped(1, 9) and not plan.is_dropped(1, 8)
        plan2 = plan.with_(watchdog_timeout=0.5)
        assert plan2.watchdog_timeout == 0.5 and plan2.dropped == plan.dropped

    def test_drop_last_publish(self):
        thread_of = np.array([0, 1, 0, 1, 0, 1])
        pairs = drop_last_publish(thread_of, 1, k=2)
        assert pairs == {(1, 3), (1, 5)}
        assert drop_last_publish(thread_of, 0, k=0) == frozenset()


# ----------------------------------------------------------------------
# FaultInjectedBoard
# ----------------------------------------------------------------------
class TestFaultInjectedBoard:
    def test_drops_and_counts(self):
        rep = FaultRunReport()
        board = FaultInjectedBoard(2, FaultPlan(dropped=frozenset({(0, 1)})), report=rep)
        board.publish(0, 0)
        board.publish(0, 1)  # dropped: counter stays at 0
        assert board.load(0) == 0
        assert rep.dropped_events == 1

    def test_next_publish_covers(self):
        board = FaultInjectedBoard(1, FaultPlan(dropped=frozenset({(0, 1)})))
        board.publish(0, 0)
        board.publish(0, 1)  # lost
        board.publish(0, 2)  # covers it — no monotonicity violation
        assert board.load(0) == 2
        assert board.try_wait(0, 1, timeout=0.01)

    def test_healthy_board_unchanged(self):
        b = ProgressBoard(2)
        b.publish(1, 4)
        assert b.try_wait(1, 4, timeout=0.01)
        assert not b.try_wait(1, 5, timeout=0.01)


# ----------------------------------------------------------------------
# SimMachine stragglers
# ----------------------------------------------------------------------
class TestStragglerMachine:
    def test_with_faults_derates_and_slows(self):
        S, level_ptr, flops, touched = _sim_inputs(seed=1)
        plan = FaultPlan(stragglers={0: 8.0})
        clean = SimMachine(uniform_machine(n_cores=4), 4)
        faulty = clean.with_faults(plan)
        assert "faulty" in repr(faulty)
        mk0, _, _ = simulate_upper_p2p(S, level_ptr, clean, flops, touched)
        mk1, fin_a, _ = simulate_upper_p2p(S, level_ptr, faulty, flops, touched)
        assert mk1 > mk0
        # deterministic: same plan, same times
        mk2, fin_b, _ = simulate_upper_p2p(
            S, level_ptr, clean.with_faults(plan), flops, touched
        )
        assert mk1 == mk2 and np.array_equal(fin_a, fin_b)

    def test_unit_rate_plan_is_identity(self):
        S, level_ptr, flops, touched = _sim_inputs(seed=2)
        clean = SimMachine(uniform_machine(n_cores=4), 4)
        noop = clean.with_faults(FaultPlan(stragglers={}))
        mk0, f0, _ = simulate_upper_p2p(S, level_ptr, clean, flops, touched)
        mk1, f1, _ = simulate_upper_p2p(S, level_ptr, noop, flops, touched)
        assert mk0 == mk1 and np.array_equal(f0, f1)


# ----------------------------------------------------------------------
# DES kernels under faults: scalar == batched, bit for bit
# ----------------------------------------------------------------------
class TestDESFaults:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_scalar_batched_parity_under_faults(self, seed):
        S, level_ptr, flops, touched = _sim_inputs(seed=seed)
        p = 4
        dropped = _real_wait_pairs(S, level_ptr, p, count=4)
        plan = FaultPlan.seeded(
            p,
            seed=seed,
            n_stragglers=1,
            slowdown=3.0,
            n_rows=int(level_ptr[-1]),
            spin_fault_frac=0.2,
            dropped=dropped,
        )
        mach = SimMachine(uniform_machine(n_cores=p), p).with_faults(plan)
        thread_of = assign_round_robin(level_ptr, p)
        reps = [FaultRunReport(), FaultRunReport()]
        out = [
            sim(
                S, mach, thread_of, flops, touched,
                m=int(level_ptr[-1]), fault_plan=plan, fault_report=rep,
            )
            for sim, rep in zip((upper_p2p_sim_scalar, upper_p2p_sim), reps)
        ]
        (mk_s, fin_s, _), (mk_b, fin_b, _) = out
        assert mk_s == mk_b
        assert np.array_equal(fin_s, fin_b)
        assert reps[0].to_dict() == reps[1].to_dict()
        assert reps[0].dropped_events > 0

    def test_dropped_with_cover_adds_delay_not_watchdog(self):
        S, level_ptr, flops, touched = _sim_inputs(seed=4)
        p = 4
        pairs = _real_wait_pairs(S, level_ptr, p, count=2)
        plan = FaultPlan(dropped=frozenset(pairs))
        mach = SimMachine(uniform_machine(n_cores=p), p)
        rep = FaultRunReport()
        mk_c, _, _ = simulate_upper_p2p(S, level_ptr, mach, flops, touched)
        mk_f, _, _ = simulate_upper_p2p(
            S, level_ptr, mach, flops, touched, fault_plan=plan, fault_report=rep
        )
        assert rep.dropped_events > 0
        assert mk_f >= mk_c

    def test_uncovered_drop_engages_watchdog(self):
        S, level_ptr, flops, touched = _sim_inputs(seed=5)
        p = 4
        thread_of = assign_round_robin(level_ptr, p)
        # drop every publish of thread 1 from some row onward: consumers
        # of its later rows have no cover and must watchdog
        rows1 = np.nonzero(thread_of == 1)[0]
        dropped = frozenset((1, int(r)) for r in rows1[len(rows1) // 2 :])
        plan = FaultPlan(dropped=dropped, watchdog_timeout=0.25)
        mach = SimMachine(uniform_machine(n_cores=p), p)
        rep = FaultRunReport()
        mk_c, _, _ = simulate_upper_p2p(S, level_ptr, mach, flops, touched)
        mk_f, _, _ = simulate_upper_p2p(
            S, level_ptr, mach, flops, touched, fault_plan=plan, fault_report=rep
        )
        assert rep.watchdog_engaged
        assert rep.stalls
        assert mk_f >= mk_c + plan.watchdog_timeout

    def test_spin_fault_costs_exactly_penalty_per_hit(self):
        S, level_ptr, flops, touched = _sim_inputs(seed=6)
        p = 4
        mach = SimMachine(uniform_machine(n_cores=p), p)
        mk_c, fin_c, _ = simulate_upper_p2p(S, level_ptr, mach, flops, touched)
        plan = FaultPlan(
            spin_faults=frozenset(range(int(level_ptr[-1]))), spin_fault_penalty=1e-6
        )
        mk_f, fin_f, _ = simulate_upper_p2p(
            S, level_ptr, mach, flops, touched, fault_plan=plan
        )
        assert mk_f >= mk_c
        # only rows with a cross-thread wait pay — some must, some must not
        assert np.any(fin_f > fin_c) and mk_f < mk_c + 1e-6 * int(level_ptr[-1])


# ----------------------------------------------------------------------
# task-graph stragglers
# ----------------------------------------------------------------------
def test_task_graph_straggler_slows_run():
    g = TaskGraph()
    prev = None
    for i in range(6):
        tid = g.add(1e-6, deps=[prev] if prev is not None else [])
        prev = tid
    mach = SimMachine(uniform_machine(n_cores=2), 2)
    mk0, _ = simulate_task_graph(g, mach)
    mk1, _ = simulate_task_graph(g, mach, fault_plan=FaultPlan(stragglers={0: 4.0, 1: 4.0}))
    assert mk1 > mk0


# ----------------------------------------------------------------------
# real threaded runtime: faults cost time, never correctness
# ----------------------------------------------------------------------
class TestThreadedWatchdog:
    def _setup(self, seed=7, n=90):
        A, S, ls = _staged(seed=seed, n=n)
        Fref = ilu_factor_sequential(A, S)
        return A, S, ls, Fref

    def test_dropped_notifications_fall_back_bit_identical(self):
        A, S, ls, Fref = self._setup()
        p = 4
        thread_of = assign_round_robin(ls.level_ptr, p)
        dropped = frozenset(
            (1, int(r)) for r in np.nonzero(thread_of == 1)[0]
        )  # thread 1 never notifies anyone
        plan = FaultPlan(dropped=dropped)
        rep = FaultRunReport()
        F = threaded_factor(
            A, S, ls.level_ptr, p,
            fault_plan=plan, fault_report=rep, watchdog_timeout=0.2,
        )
        assert np.array_equal(F.data, Fref.data)  # faults never change results
        assert rep.watchdog_engaged
        assert rep.n_fallback_rows > 0
        assert rep.dropped_events > 0

    def test_straggler_sleep_alone_no_watchdog(self):
        A, S, ls, Fref = self._setup(seed=8)
        plan = FaultPlan(stragglers={0: 3.0}, real_sleep_per_row=1e-4)
        rep = FaultRunReport()
        F = threaded_factor(
            A, S, ls.level_ptr, 4, fault_plan=plan, fault_report=rep
        )
        assert np.array_equal(F.data, Fref.data)
        assert not rep.watchdog_engaged

    def test_trisolve_watchdog_bit_identical(self, rng):
        A, S, ls, Fref = self._setup(seed=9)
        b = rng.standard_normal(A.n_rows)
        y_ref = trisolve_lower_serial(Fref, b)
        p = 4
        thread_of = assign_round_robin(ls.level_ptr, p)
        plan = FaultPlan(
            dropped=frozenset((2, int(r)) for r in np.nonzero(thread_of == 2)[0])
        )
        rep = FaultRunReport()
        y = threaded_trisolve_lower(
            Fref, b, ls.level_ptr, p,
            fault_plan=plan, fault_report=rep, watchdog_timeout=0.2,
        )
        assert np.array_equal(y, y_ref)
        assert rep.watchdog_engaged
