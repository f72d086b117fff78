"""Observability costs and contracts (``docs/observability.md``).

Measures what the obs layer records and proves what it must not do:

* **traced factor** — a simulated two-stage factorization exported
  through the full pipeline: trace metrics (sync waits, level
  occupancy, utilization), cache hit rate, roofline utilization vs the
  SimMachine peak, and a schema-validated Chrome trace event list;
* **span overhead** — the real threaded factorization with tracing off
  vs on: recorded wall-clock for both, plus the non-negotiable check
  that the factor bits are identical either way;
* **zero rhs** — all five solvers on ``b = 0`` return ``x = 0`` in zero
  iterations (the regression the solver sweep fixed).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_obs.py           # full run,
        # records benchmarks/results/BENCH_obs.json
    PYTHONPATH=src python benchmarks/bench_obs.py --check   # fast gate:
        # exits non-zero on a schema violation, malformed span nesting,
        # a tracing-induced bit change, or a broken zero-RHS short-circuit

``BENCH_obs.json`` carries the metrics snapshot under ``"metrics"`` in
the versioned ``repro.obs.metrics/v1`` schema — the file ``repro obs
diff`` compares across commits.
"""

import sys

import numpy as np

from repro import obs
from repro.core import JavelinILU
from repro.core.symbolic import row_factor_costs
from repro.kernels.cache import clear_default_cache, default_cache
from repro.machine import SimMachine, uniform_machine
from repro.machine.trace import ExecutionTrace
from repro.matrices import grid2d
from repro.runtime import threaded_factor
from repro.solvers import bicgstab, cg, fgmres, gmres, sor_solve

from bench_util import bench_main, level_ordered_matrix, timeit_best as _timeit


def traced_factor(nx=32, p=8):
    """Simulated two-stage run through metrics + Chrome-trace export."""
    A = grid2d(nx)
    clear_default_cache()
    ilu = JavelinILU().setup(A, n_threads=p)
    machine = SimMachine(uniform_machine(n_cores=p), p)
    rep = ilu.simulate_factor(machine, lower=True)

    reg = obs.MetricsRegistry()
    obs.record_trace_metrics(reg, rep.trace, prefix="sim.upper", level_ptr=ilu.level_ptr)
    if rep.lower_trace is not None:
        obs.record_trace_metrics(reg, rep.lower_trace, prefix="sim.lower")
    obs.record_cache_metrics(reg, default_cache())
    flops, touched = row_factor_costs(ilu.S_perm)
    obs.record_roofline_metrics(reg, rep.trace, machine, flops, touched)
    snapshot = reg.snapshot()

    events = obs.execution_trace_events(
        rep.trace, pid=2, cat="sim.upper", level_ptr=ilu.level_ptr
    )
    if rep.lower_trace is not None:
        events += obs.execution_trace_events(rep.lower_trace, pid=3, cat="sim.lower")
    return {
        "kernel": "traced_factor",
        "case": f"grid2d-{nx}",
        "n": int(A.n_rows),
        "p": p,
        "lower_method": rep.method,
        "n_trace_events": len(events),
        "n_wait_spans": sum(1 for e in events if e.get("cat", "").endswith(".wait")),
        "trace_schema_errors": obs.validate_events(events),
        "metrics_schema_errors": obs.validate_metrics(snapshot),
        "empty_trace_utilization": ExecutionTrace(n_threads=4).utilization(),
        "metrics": snapshot,
    }


def span_overhead(nx=16, p=4, repeats=3):
    """Real-thread factorization, tracing off vs on, bit-identity check."""
    A, S, ls = level_ordered_matrix(nx)

    t_plain, F_plain, plain_samples = _timeit(
        lambda: threaded_factor(A, S, ls.level_ptr, p), repeats=repeats
    )

    last = {}

    def traced():
        with obs.tracing() as rec:
            F = threaded_factor(A, S, ls.level_ptr, p)
        last["rec"] = rec
        return F

    t_traced, F_traced, traced_samples = _timeit(traced, repeats=repeats)
    rec = last["rec"]

    names = {e.name for e in rec.events()}
    try:
        rec.check_wellformed()
        wellformed = True
    except AssertionError:
        wellformed = False
    return {
        "kernel": "span_overhead",
        "case": f"grid2d-{nx}",
        "n": int(A.n_rows),
        "p": p,
        "plain_s": t_plain,
        "traced_s": t_traced,
        "plain_samples": plain_samples,
        "traced_samples": traced_samples,
        "n_events": len(rec.events()),
        "has_wait_and_work": bool({"wait", "factor_row"} <= names),
        "wellformed": wellformed,
        "bit_identical": bool(np.array_equal(F_plain.data, F_traced.data)),
    }


def zero_rhs(nx=12):
    """Every solver short-circuits ``b = 0`` to the exact zero solution."""
    A = grid2d(nx)
    n = A.n_rows
    b = np.zeros(n)
    x0 = np.ones(n)
    cases = {
        "gmres": lambda: gmres(A, b, x0=x0),
        "fgmres": lambda: fgmres(A, b, x0=x0),
        "cg": lambda: cg(A, b, x0=x0),
        "bicgstab": lambda: bicgstab(A, b, x0=x0),
        "sor": lambda: sor_solve(A, b, x0=x0),
    }
    out = []
    for name, run in cases.items():
        r = run()
        out.append(
            {
                "solver": name,
                "ok": bool(
                    r.converged
                    and r.iterations == 0
                    and r.residual == 0.0
                    and np.all(r.x == 0.0)
                ),
            }
        )
    return {"kernel": "zero_rhs", "case": f"grid2d-{nx}", "solvers": out}


def _verify(entries):
    """The invariants both modes assert.  Returns a list of failures."""
    failures = []
    for e in entries:
        if e["kernel"] == "traced_factor":
            failures.extend(f"trace schema: {m}" for m in e["trace_schema_errors"])
            failures.extend(f"metrics schema: {m}" for m in e["metrics_schema_errors"])
            if e["n_wait_spans"] == 0:
                failures.append("simulated export shows no wait spans")
            if e["empty_trace_utilization"] != 0.0:
                failures.append("empty trace utilization is not 0.0")
        elif e["kernel"] == "span_overhead":
            if not e["bit_identical"]:
                failures.append("tracing changed the factor bits")
            if not e["wellformed"]:
                failures.append("recorded spans are not well-nested")
            if not e["has_wait_and_work"]:
                failures.append("traced run missing wait or factor_row spans")
        elif e["kernel"] == "zero_rhs":
            for c in e["solvers"]:
                if not c["ok"]:
                    failures.append(f"zero-RHS short-circuit broken in {c['solver']}")
    return failures


def _report(entries):
    for e in entries:
        if e["kernel"] == "traced_factor":
            g = e["metrics"]["gauges"]
            print(
                f"traced_factor    {e['case']} p={e['p']} ({e['lower_method']}): "
                f"{e['n_trace_events']} events, {e['n_wait_spans']} wait spans, "
                f"util={g['sim.upper.utilization']:.2f} "
                f"roofline_bw={g['roofline.bw_utilization']:.2f}"
            )
        elif e["kernel"] == "span_overhead":
            print(
                f"span_overhead    {e['case']} p={e['p']}: "
                f"plain {e['plain_s'] * 1e3:.1f} ms, traced {e['traced_s'] * 1e3:.1f} ms, "
                f"{e['n_events']} events, bit_identical={e['bit_identical']}"
            )
        elif e["kernel"] == "zero_rhs":
            ok = all(c["ok"] for c in e["solvers"])
            print(f"zero_rhs         {e['case']}: all_exact={ok}")


def run(check):
    """Both modes assert every contract; ``check`` runs smaller cases."""
    if check:
        entries = [traced_factor(nx=16, p=4), span_overhead(nx=10, p=4), zero_rhs(nx=8)]
    else:
        entries = [traced_factor(nx=32, p=8), span_overhead(nx=16, p=4), zero_rhs(nx=12)]
    failures = _verify(entries)
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "note": "observability layer: traced factorization, span overhead, "
            "zero-RHS short-circuit; tracing must never change numeric bits",
        },
        "entries": entries,
        "metrics": entries[0]["metrics"],
    }
    _report(entries)
    if check and not failures:
        print("obs check: schema=valid nesting=wellformed bit_identical=True")
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("obs", run, __doc__))
