"""Tracing must never change numeric results — bit-for-bit.

Spans only read the clock, so a traced run and an untraced run of the
same factorization or solve must produce identical arrays (not just
close: ``array_equal``).  This is the contract that lets the obs layer
stay on in CI without invalidating any numeric claim.
"""

import numpy as np

from repro import obs
from repro.core import JavelinILU
from repro.core.symbolic import ilu0_pattern
from repro.matrices import grid2d
from repro.ordering.levelsets import level_schedule
from repro.runtime import threaded_factor
from repro.solvers import gmres


def _level_ordered(nx):
    A0 = grid2d(nx)
    ls0 = level_schedule(ilu0_pattern(A0))
    perm = ls0.permutation()
    A = A0.permute(perm, perm)
    S = ilu0_pattern(A)
    return A, S, level_schedule(S)


class TestBitIdentity:
    def test_sequential_factor_and_solve(self):
        A = grid2d(10)
        b = np.arange(A.n_rows, dtype=float)

        def run():
            ilu = JavelinILU().setup(A, n_threads=1)
            ilu.factor()
            M = ilu.build_solver()
            return gmres(A, b, M=M, maxiter=30)

        plain = run()
        with obs.tracing() as rec:
            traced = run()
        assert np.array_equal(plain.x, traced.x)
        assert plain.history == traced.history
        assert len(rec.events()) > 0  # tracing actually recorded something

    def test_threaded_factor(self):
        A, S, ls = _level_ordered(12)
        F_plain = threaded_factor(A, S, ls.level_ptr, 4)
        with obs.tracing():
            F_traced = threaded_factor(A, S, ls.level_ptr, 4)
        assert np.array_equal(F_plain.data, F_traced.data)
        assert np.array_equal(F_plain.indices, F_traced.indices)

    def test_threaded_two_stage(self):
        A0 = grid2d(12)
        ilu = JavelinILU().setup(A0, n_threads=4)
        F_plain = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, 4)
        with obs.tracing() as rec:
            F_traced = threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, 4)
        assert np.array_equal(F_plain.data, F_traced.data)
        names = {e.name for e in rec.events()}
        assert "upper_stage" in names and "factor_row" in names
        rec.check_wellformed()
