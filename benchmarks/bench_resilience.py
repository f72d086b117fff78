"""Fault sweeps and breakdown-recovery costs (``docs/resilience.md``).

Measures what the resilience layer costs and proves what it buys:

* **straggler sweep** — simulated p2p upper-stage makespan degradation
  when one of ``p`` threads runs 2/4/8x slow (``SimMachine.with_faults``);
* **breakdown recovery** — which retry-chain stage rescues each
  pathological matrix (zeroed diagonals, singular rank-1 blocks,
  all-zero diagonal) and in how many attempts;
* **retry overhead** — ``ResilientFactor`` setup on a *healthy* matrix
  vs bare ``JavelinILU`` (the chain's happy path should cost one probe
  apply, a few percent);
* **runtime watchdog** — the real threaded factorization under dropped
  notifications, LS-only and two-stage (Even-Rows lower rows): fallback
  row counts and the bit-identity check.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_resilience.py           # full run,
        # records benchmarks/results/BENCH_resilience.json
    PYTHONPATH=src python benchmarks/bench_resilience.py --check   # fast gate:
        # exits non-zero if any recovery fails, a faulty run changes
        # results, or the retry overhead explodes

Both modes assert the layer's core contract: faults and breakdowns cost
time or preconditioner quality, never correctness.
"""

import sys
import time

import numpy as np

from repro.core import JavelinILU
from repro.core.iluk import ilu_factor_sequential
from repro.core.symbolic import row_factor_costs
from repro.core.upper import assign_round_robin, simulate_upper_p2p
from repro.machine import SimMachine, uniform_machine
from repro.matrices import grid2d, singular_block, zero_diag_rows
from repro.resilience import FaultPlan, FaultRunReport, ResilientFactor
from repro.runtime import threaded_factor
from repro.sparse import from_dense

from bench_util import bench_main, level_ordered_matrix, level_ordered_pattern
from bench_util import timeit_best as _timeit

SLOWDOWNS = [1.0, 2.0, 4.0, 8.0]


def straggler_sweep(nx=48, p=8):
    """Makespan degradation vs one straggler's slowdown factor."""
    Sp, lsp = level_ordered_pattern(nx)
    flops, touched = row_factor_costs(Sp)
    clean = SimMachine(uniform_machine(n_cores=p), p)
    mk0, _, _ = simulate_upper_p2p(Sp, lsp.level_ptr, clean, flops, touched)
    points = []
    for s in SLOWDOWNS:
        mach = clean.with_faults(FaultPlan(stragglers={0: s}))
        mk, _, _ = simulate_upper_p2p(Sp, lsp.level_ptr, mach, flops, touched)
        points.append({"slowdown": s, "makespan": mk, "degradation": mk / mk0})
    return {
        "kernel": "straggler_sweep",
        "case": f"grid2d-{nx}",
        "n": int(Sp.n_rows),
        "p": p,
        "clean_makespan": mk0,
        "points": points,
        "monotone": all(
            a["degradation"] <= b["degradation"] + 1e-12
            for a, b in zip(points, points[1:])
        ),
    }


def _ring_zero_diag(n=32):
    D = np.zeros((n, n))
    for i in range(n):
        D[i, i] = 0.0
        D[i, (i + 1) % n] = 1.0
        D[i, (i - 1) % n] = 1.0
    return from_dense(D)


def breakdown_recovery(nx=16):
    """Chain outcome on each pathological matrix class."""
    n = nx * nx
    cases = {
        "zero_diag": zero_diag_rows(grid2d(nx), [0, n // 2]),
        "singular_block": singular_block(n, block_start=n // 3, block_size=4),
        "all_zero_diag_ring": _ring_zero_diag(),
    }
    out = []
    for name, A in cases.items():
        rf = ResilientFactor().setup(A)
        z = rf.solve(np.ones(A.n_rows))
        out.append(
            {
                "case": name,
                "n": int(A.n_rows),
                "final_variant": rf.report.final_variant,
                "final_shift": rf.report.final_shift,
                "n_attempts": rf.report.n_attempts,
                "n_breakdowns": rf.report.n_breakdowns,
                "apply_finite": bool(np.all(np.isfinite(z))),
            }
        )
    return {"kernel": "breakdown_recovery", "cases": out}


def retry_overhead(nx=32, repeats=3):
    """ResilientFactor vs bare JavelinILU setup on a healthy matrix."""
    A = grid2d(nx)

    def bare():
        ilu = JavelinILU().setup(A)
        ilu.factor()
        return ilu

    def resilient():
        return ResilientFactor().setup(A)

    t_bare, _, bare_samples = _timeit(bare, repeats=repeats)
    t_res, rf, res_samples = _timeit(resilient, repeats=repeats)
    return {
        "kernel": "retry_overhead",
        "case": f"grid2d-{nx}",
        "n": int(A.n_rows),
        "bare_s": t_bare,
        "resilient_s": t_res,
        "bare_samples": bare_samples,
        "resilient_samples": res_samples,
        "overhead": t_res / t_bare,
        "n_attempts": rf.report.n_attempts,
        "final_variant": rf.report.final_variant,
    }


def runtime_watchdog(nx=12, p=4, watchdog_timeout=0.2, *, staged=False):
    """Real-thread factorization with thread 1's notifications all lost.

    ``staged`` runs ``JavelinILU``'s two-stage order, whose small trailing
    levels are Even-Rows lower rows, instead of the LS-only level order.
    """
    if staged:
        ilu = JavelinILU().setup(grid2d(nx))
        A, S, level_ptr = ilu.A_perm, ilu.S_perm, ilu.level_ptr
    else:
        A, S, ls = level_ordered_matrix(nx)
        level_ptr = ls.level_ptr
    Fref = ilu_factor_sequential(A, S)
    thread_of = assign_round_robin(level_ptr, p)
    dropped = frozenset((1, int(r)) for r in np.nonzero(thread_of == 1)[0])
    rep = FaultRunReport()
    t0 = time.perf_counter()
    F = threaded_factor(
        A,
        S,
        level_ptr,
        p,
        fault_plan=FaultPlan(dropped=dropped),
        fault_report=rep,
        watchdog_timeout=watchdog_timeout,
    )
    elapsed = time.perf_counter() - t0
    entry = {
        "kernel": "runtime_watchdog",
        "case": f"grid2d-{nx}" + ("-staged" if staged else ""),
        "n": int(A.n_rows),
        "p": p,
        "watchdog_timeout_s": watchdog_timeout,
        "elapsed_s": elapsed,
        "watchdog_engaged": rep.watchdog_engaged,
        "n_fallback_rows": rep.n_fallback_rows,
        "dropped_events": rep.dropped_events,
        "bit_identical": bool(np.array_equal(F.data, Fref.data)),
    }
    if staged:
        entry["lower_rows"] = int(A.n_rows - level_ptr[-1])
    return entry


def _verify(entries):
    """The invariants both modes assert.  Returns a list of failures."""
    failures = []
    for e in entries:
        if e["kernel"] == "straggler_sweep" and not e["monotone"]:
            failures.append("straggler degradation not monotone in slowdown")
        if e["kernel"] == "breakdown_recovery":
            for c in e["cases"]:
                if c["final_variant"] is None or not c["apply_finite"]:
                    failures.append(f"recovery failed on {c['case']}")
        if e["kernel"] == "runtime_watchdog":
            if not e["bit_identical"]:
                failures.append("faulty threaded run changed the factor")
            if not e["watchdog_engaged"]:
                failures.append("watchdog never engaged under dropped plan")
            if e.get("lower_rows") == 0:
                failures.append("staged watchdog pattern has no lower rows")
    return failures


def _report(entries):
    for e in entries:
        if e["kernel"] == "straggler_sweep":
            degr = ", ".join(
                f"{p['slowdown']:.0f}x->{p['degradation']:.2f}" for p in e["points"]
            )
            print(f"straggler_sweep  {e['case']} p={e['p']}: {degr}")
        elif e["kernel"] == "breakdown_recovery":
            for c in e["cases"]:
                print(
                    f"recovery         {c['case']:>18}: final={c['final_variant']} "
                    f"shift={c['final_shift']:g} attempts={c['n_attempts']} "
                    f"finite={c['apply_finite']}"
                )
        elif e["kernel"] == "retry_overhead":
            print(
                f"retry_overhead   {e['case']}: bare {e['bare_s'] * 1e3:.1f} ms, "
                f"resilient {e['resilient_s'] * 1e3:.1f} ms "
                f"({e['overhead']:.2f}x, {e['n_attempts']} attempt)"
            )
        elif e["kernel"] == "runtime_watchdog":
            print(
                f"runtime_watchdog {e['case']}: engaged={e['watchdog_engaged']} "
                f"fallback_rows={e['n_fallback_rows']} "
                f"bit_identical={e['bit_identical']}"
            )


def run(check):
    """Full mode adds the retry-overhead timing; ``check`` runs small cases."""
    if check:
        entries = [
            straggler_sweep(nx=20, p=4),
            breakdown_recovery(nx=10),
            runtime_watchdog(nx=8, watchdog_timeout=0.1),
            runtime_watchdog(nx=8, watchdog_timeout=0.1, staged=True),
        ]
    else:
        entries = [
            straggler_sweep(nx=48, p=8),
            breakdown_recovery(nx=16),
            retry_overhead(nx=32),
            runtime_watchdog(nx=12),
            runtime_watchdog(nx=12, staged=True),
        ]
    failures = _verify(entries)
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "note": "fault sweep + breakdown recovery; every entry asserts "
            "the faults-cost-time-never-correctness contract",
        },
        "entries": entries,
    }
    _report(entries)
    if check and not failures:
        print("resilience check: recovery=True bit_identical=True")
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("resilience", run, __doc__))
