"""The production kernels: direct calls, scalar references, the trace hook."""

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions
from repro.core.iluk import ilu_factor, ilu_factor_sequential
from repro.core.symbolic import row_factor_costs
from repro.core.upper import assign_round_robin, simulate_upper_barrier, simulate_upper_p2p
from repro.kernels import cached_analysis
from repro.kernels.des import (
    superstep_sim,
    superstep_sim_scalar,
    upper_p2p_sim,
    upper_p2p_sim_scalar,
)
from repro.kernels.trisolve import (
    trisolve_lower,
    trisolve_lower_serial,
    trisolve_upper,
    trisolve_upper_serial,
)
from repro.machine import SimMachine, uniform_machine
from repro.matrices import grid2d
from repro.obs import spans
from repro.obs.spans import tracing
from repro.sched import simulate_schedule

# each production kernel beside its scalar reference
PAIRS = {
    "trisolve_lower": (trisolve_lower, trisolve_lower_serial),
    "trisolve_upper": (trisolve_upper, trisolve_upper_serial),
    "upper_p2p_sim": (upper_p2p_sim, upper_p2p_sim_scalar),
    "superstep_sim": (superstep_sim, superstep_sim_scalar),
    "ilu_factor": (ilu_factor, ilu_factor_sequential),
}


@pytest.fixture(scope="module")
def ilu():
    ilu = JavelinILU(JavelinOptions(fill_level=1)).setup(grid2d(8))
    ilu.factor()
    return ilu


def _kernel_spans(rec):
    return [e.name for e in rec.spans() if e.cat == "kernel"]


class TestPairs:
    def test_production_kernels_are_hook_wrapped(self):
        """Each production kernel is hook-wrapped under its own name; no reference is."""
        for name, (prod, ref) in PAIRS.items():
            assert prod.__name__ == name  # the ``kernel.<name>`` span's suffix
            assert callable(prod.__wrapped__)
            assert not hasattr(ref, "__wrapped__")

    def test_each_kernel_matches_its_reference(self, ilu):
        """Production kernel and scalar reference agree bit for bit."""
        F, S = ilu.F, ilu.S_perm
        b = np.random.default_rng(0).standard_normal(F.n_rows)
        for name in ("trisolve_lower", "trisolve_upper"):
            prod, ref = PAIRS[name]
            assert np.array_equal(prod(F, b), ref(F, b))
        prod, ref = PAIRS["ilu_factor"]
        assert prod(ilu.A_perm, S).data.tobytes() == ref(ilu.A_perm, S).data.tobytes()
        mach = SimMachine(uniform_machine(n_cores=4), 4)
        flops, touched = row_factor_costs(S)
        level_ptr = ilu._full_level_ptr().level_ptr
        thread_of = assign_round_robin(level_ptr, 4)
        m = int(level_ptr[-1])
        (mk_b, fin_b, _), (mk_s, fin_s, _) = (
            sim(S, mach, thread_of, flops, touched, m=m) for sim in PAIRS["upper_p2p_sim"]
        )
        assert mk_b == mk_s and np.array_equal(fin_b, fin_s)
        plan = cached_analysis(S).superstep_plan("lower", n_threads=4)
        fl, tl = cached_analysis(S).solve_costs("lower")
        (ck_b, fin_b, _), (ck_s, fin_s, _) = (
            sim(S, mach, plan, fl, tl) for sim in PAIRS["superstep_sim"]
        )
        assert ck_b == ck_s and np.array_equal(fin_b, fin_s)

    def test_des_call_sites_run_the_batched_kernels(self, ilu):
        """The DES call sites run the batched kernels (their spans fire)."""
        S = ilu.S_perm
        mach = SimMachine(uniform_machine(n_cores=4), 4)
        flops, touched = row_factor_costs(S)
        level_ptr = ilu._full_level_ptr().level_ptr
        with tracing() as rec:
            simulate_upper_p2p(S, level_ptr, mach, flops, touched)
        assert _kernel_spans(rec) == ["kernel.upper_p2p_sim"]
        with tracing() as rec:
            simulate_upper_barrier(S, level_ptr, mach, flops, touched)
            simulate_schedule("superstep", S, mach, both=False)
        assert _kernel_spans(rec) == ["kernel.superstep_sim"] * 2


class TestHook:
    def test_traced_factor_and_solve_record_kernel_spans(self):
        ilu = JavelinILU().setup(grid2d(8))
        b = np.ones(64)
        with tracing() as rec:
            ilu.factor()
            ilu.solve(b)
        names = _kernel_spans(rec)
        assert names == ["kernel.ilu_factor", "kernel.trisolve_lower", "kernel.trisolve_upper"]

    def test_untraced_run_records_none(self, monkeypatch):
        opened = []
        real_span = spans.span
        monkeypatch.setattr(
            spans, "span", lambda name, *a, **k: opened.append(name) or real_span(name, *a, **k)
        )
        ilu = JavelinILU().setup(grid2d(8))
        ilu.factor()
        ilu.solve(np.ones(64))
        assert not spans.enabled()
        assert [n for n in opened if n.startswith("kernel.")] == []
