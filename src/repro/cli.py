"""Command-line interface: ``python -m repro <command>``.

Commands
--------
suite
    Print the synthetic test-suite catalog (Table I columns, computed
    at the requested scale, next to the published values).
factor MATRIX
    Build + preorder a suite matrix (or load a ``.mtx`` file), run the
    two-stage factorization, and print schedule stats and diagnostics.
simulate MATRIX
    Simulated factorization speedup curve on a chosen machine.
solve MATRIX
    Solve ``A x = b`` (random b) with a chosen Krylov method and
    preconditioner; print the iteration count and residual.
verify [ARGS...]
    Static-analysis suite (``repro.verify``): lint rules, schedule
    race replay, pruning proof, structural invariants; ``--protocol``
    adds exhaustive model checking of the cluster request protocol and
    ``--deadlock`` the scheduler wait-for-graph proofs.  All arguments
    are forwarded to ``python -m repro.verify``.
obs {report,export,diff}
    Observability (``repro.obs``): trace a factorization (real threads
    + simulated timeline) and print a flamegraph-style summary
    (``report``), export it as Chrome trace-event JSON for
    ``chrome://tracing`` / Perfetto (``export``), or compare two
    metrics snapshots (``diff``).

The gated benches (kernels, resilience, obs, sched, serve, cluster,
apps) are scripts, not subcommands:
``python benchmarks/bench_<name>.py [--check]``; so is the bench
regression tracker, ``python benchmarks/regress.py``.

The ``REPRO_SYMBOLIC_CACHE_SIZE`` environment variable resizes the
process-wide symbolic cache (``repro.kernels.cache``) before any
command runs.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys

import numpy as np

__all__ = ["main", "build_parser"]

#: subcommands whose argv goes straight to another module's ``main``:
#: name -> (module, help)
PASSTHROUGH = {
    "verify": ("repro.verify.cli", "run the static-analysis suite"),
}


def _load_matrix(args):
    from .matrices import SUITE, build_matrix, preorder_for_javelin
    from .sparse import read_matrix_market

    if args.matrix.endswith(".mtx") or args.matrix.endswith(".mtx.gz"):
        A = read_matrix_market(args.matrix)
    elif args.matrix in SUITE:
        A = build_matrix(args.matrix, scale=args.scale)
    else:
        raise SystemExit(
            f"unknown matrix {args.matrix!r}: pass a suite name "
            f"({', '.join(sorted(SUITE))}) or a .mtx path"
        )
    if args.preorder != "none":
        A = preorder_for_javelin(A, method=args.preorder)
    return A


def _machine(args):
    from .machine import SimMachine, haswell, knl, uniform_machine

    spec = {"haswell": haswell(), "knl": knl()}.get(args.machine)
    if spec is None:
        spec = uniform_machine(n_cores=int(args.machine))
    if args.overhead_scale != 1.0:
        spec = spec.scaled_overheads(args.overhead_scale)
    return spec


def cmd_suite(args):
    from .analysis import print_table
    from .analysis.levels import table1_row
    from .matrices import SUITE, build_matrix, paper_stats, preorder_for_javelin

    rows = []
    for name in sorted(SUITE):
        A = preorder_for_javelin(build_matrix(name, scale=args.scale))
        row = {"Matrix": name}
        row.update(table1_row(A))
        paper = paper_stats(name)
        row["paper_N"] = paper["N"]
        row["paper_Lvl"] = paper["Lvl"]
        row["group"] = paper["group"]
        rows.append(row)
    print_table(rows, title=f"Synthetic suite at scale {args.scale}")
    return 0


def cmd_factor(args):
    from .core import JavelinILU, JavelinOptions, ScheduleOptions
    from .core.diagnostics import pivot_growth

    A = _load_matrix(args)
    opts = JavelinOptions(
        fill_level=args.fill_level,
        tau=args.tau,
        modified=args.modified,
        schedule=ScheduleOptions(min_rows_per_level=args.alpha),
    )
    ilu = JavelinILU(opts).setup(A)
    res = ilu.factor()
    st = ilu.stats()
    g = pivot_growth(A, res.F)
    print(f"matrix: n={A.n_rows} nnz={A.nnz} rd={A.row_density():.2f}")
    print(
        f"schedule: {st['n_levels']} levels, {st['n_upper_levels']} kept upper, "
        f"{st['n_lower_rows']} rows to the lower stage "
        f"(method {ilu.resolved_lower_method()})"
    )
    print(f"pattern nnz: {st['nnz_pattern']} ({st['nnz_pattern'] / A.nnz:.2f}x A)")
    print(
        f"diagnostics: growth={g['growth']:.2f} min_pivot={g['min_pivot']:.3e} "
        f"pivot_spread={g['pivot_spread']:.3e}"
    )
    return 0


def cmd_simulate(args):
    from .analysis import print_table
    from .core import JavelinILU
    from .machine import SimMachine

    A = _load_matrix(args)
    spec = _machine(args)
    ilu = JavelinILU().setup(A)
    ser = ilu.simulate_factor(SimMachine(spec, 1), lower=False).total
    threads = [int(t) for t in args.threads.split(",")]
    rows = []
    for p in threads:
        m = SimMachine(spec, p)
        ls = ilu.simulate_factor(m, lower=False).total
        two = min(ilu.simulate_factor(m, lower=True).total, ls)
        rows.append(
            {
                "threads": p,
                "LS_speedup": round(ser / ls, 2),
                "LS+Lower_speedup": round(ser / two, 2),
            }
        )
    print_table(rows, title=f"simulated ILU(0) speedup on {spec.name}")
    return 0


def cmd_solve(args):
    from .core import JavelinILU
    from .solvers import bicgstab, cg, gmres, ssor_preconditioner

    A = _load_matrix(args)
    rng = np.random.default_rng(args.seed)
    b = rng.standard_normal(A.n_rows)
    M = None
    if args.precond == "ilu":
        ilu = JavelinILU().setup(A)
        ilu.factor()
        M = ilu.solve
    elif args.precond == "ssor":
        M = ssor_preconditioner(A)
    solver = {"cg": cg, "gmres": gmres, "bicgstab": bicgstab}[args.solver]
    r = solver(A, b, M=M, tol=args.tol, maxiter=args.maxiter)
    state = "converged" if r.converged else "did NOT converge"
    print(
        f"{args.solver}+{args.precond}: {state} in {r.iterations} iterations, "
        f"relative residual {r.residual:.3e}"
    )
    return 0 if r.converged else 1


def _traced_factor_run(args):
    """One observed factorization: real-thread spans + simulated timeline.

    Returns ``(ilu, sim_report, recorder)`` — the simulated DES trace
    pair (upper + lower stage) and a :class:`SpanRecorder` holding the
    wait/work spans of an actual two-stage ``threaded_factor`` run at
    the same thread count.
    """
    from . import obs
    from .core import JavelinILU
    from .machine import SimMachine
    from .runtime import threaded_factor

    A = _load_matrix(args)
    spec = _machine(args)
    ilu = JavelinILU().setup(A, n_threads=args.threads)
    rep = ilu.simulate_factor(SimMachine(spec, args.threads), lower=True)
    with obs.tracing() as rec:
        threaded_factor(ilu.A_perm, ilu.S_perm, ilu.level_ptr, args.threads)
    return ilu, rep, rec


def cmd_obs_report(args):
    from . import obs
    from .kernels.cache import default_cache

    ilu, rep, rec = _traced_factor_run(args)
    print(f"== real threads ({args.threads}): span summary ==")
    print(obs.render_flame(rec.events()))
    print()
    print(obs.render_trace_report(rep.trace, title=f"simulated upper stage (lower method {rep.method})"))
    if rep.lower_trace is not None:
        print()
        print(obs.render_trace_report(rep.lower_trace, title="simulated lower stage"))
    reg = obs.MetricsRegistry()
    obs.record_trace_metrics(reg, rep.trace, prefix="sim.upper", level_ptr=ilu.level_ptr)
    if rep.lower_trace is not None:
        obs.record_trace_metrics(reg, rep.lower_trace, prefix="sim.lower")
    obs.record_cache_metrics(reg, default_cache())
    obs.record_factor_cache_metrics(reg)  # serving factor caches, if any live
    snap = reg.snapshot()
    print()
    print("== metrics ==")
    for section in ("counters", "gauges"):
        for name, v in sorted(snap[section].items()):
            print(f"  {name} = {v:.6g}")
    return 0


def _scheduler_timeline_events(args, ilu):
    """Trace events of one scheduler's simulated forward solve (pid 4).

    Superstep runs its DES kernel and marks every superstep boundary as
    a global instant; elastic emits the block/correction-sweep clocks of
    its stale-synchronous simulation; syncfree shows the per-lane
    self-scheduled timeline.  ``p2p``/``barrier`` add nothing — their
    timelines are pids 2/3 already.
    """
    from . import obs
    from .kernels import cached_analysis
    from .kernels.des import superstep_sim
    from .machine import SimMachine

    name = args.scheduler
    if name in (None, "p2p", "barrier"):
        return []
    S = ilu.S_perm
    machine = SimMachine(_machine(args), args.threads)
    an = cached_analysis(S)
    fl, tl = an.solve_costs("lower")
    if name == "superstep":
        plan = an.superstep_plan("lower", n_threads=args.threads)
        _, _, trace = superstep_sim(S, machine, plan, fl, tl)
        return obs.execution_trace_events(
            trace,
            pid=4,
            cat="sim.sched",
            step_groups=[plan.step_rows(s) for s in range(plan.n_steps)],
            thread_prefix="sched thread",
        )
    if name == "elastic":
        from .sched import SchedOptions, simulate_elastic

        sched = an.elastic_schedule("lower", staleness=SchedOptions().staleness)
        ev = []
        simulate_elastic(S, sched, machine, fl, tl, events=ev)
        out = []
        for kind, k, b, clk in ev:
            label = (
                f"correction sweep {k} done" if kind == "sweep"
                else f"sweep {k} block {b} done"
            )
            out.append(
                {
                    "name": label,
                    "cat": "sim.sched",
                    "ph": "i",
                    "s": "g",
                    "pid": 4,
                    "tid": 0,
                    "ts": clk * 1e6,
                    "args": {"sweep": int(k), "block": int(b)},
                }
            )
        return out
    if name == "syncfree":
        from .machine.trace import ExecutionTrace
        from .sched import simulate_syncfree

        trace = ExecutionTrace(args.threads)
        simulate_syncfree(S, machine, fl, tl, part="lower", trace=trace)
        return obs.execution_trace_events(
            trace, pid=4, cat="sim.sched", thread_prefix="lane"
        )
    raise ValueError(f"unknown scheduler {name!r}")


def cmd_obs_export(args):
    from . import obs

    ilu, rep, rec = _traced_factor_run(args)
    events = obs.recorder_events(rec, pid=1)
    events += obs.execution_trace_events(
        rep.trace, pid=2, cat="sim.upper", level_ptr=ilu.level_ptr
    )
    if rep.lower_trace is not None:
        events += obs.execution_trace_events(rep.lower_trace, pid=3, cat="sim.lower")
    events += _scheduler_timeline_events(args, ilu)
    errors = obs.validate_events(events)
    if errors:
        for e in errors:
            print(f"schema error: {e}", file=sys.stderr)
        return 1
    obs.write_chrome_trace(
        args.out,
        events,
        metadata={
            "matrix": args.matrix,
            "threads": args.threads,
            "machine": args.machine,
            "lower_method": rep.method,
            "scheduler": args.scheduler or "p2p",
        },
    )
    print(f"wrote {len(events)} trace events to {args.out} (load in chrome://tracing)")
    return 0


def cmd_obs_diff(args):
    import json

    from . import obs

    docs = []
    for path in (args.old, args.new):
        with open(path) as fh:
            doc = json.load(fh)
        # bench files wrap the snapshot under "metrics"; accept both
        doc = doc.get("metrics", doc) if isinstance(doc, dict) else doc
        if isinstance(doc, dict):
            for e in obs.validate_metrics(doc):
                print(f"{path}: {e}", file=sys.stderr)
        docs.append(doc)
    rep = obs.compare_snapshots(docs[0], docs[1])
    print(obs.diff_metrics(docs[0], docs[1], rel_threshold=args.rel_threshold))
    if not rep["ok"]:
        for e in rep["errors"]:
            print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def build_parser():
    p = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_matrix_opts(sp):
        sp.add_argument("matrix", help="suite matrix name or path to a .mtx file")
        sp.add_argument("--scale", type=float, default=1.0, help="suite size multiplier")
        sp.add_argument(
            "--preorder",
            choices=["nd", "rcm", "nat", "none"],
            default="nd",
            help="preordering pipeline (DM runs automatically when needed)",
        )

    sp = sub.add_parser("suite", help="print the test-suite catalog")
    sp.add_argument("--scale", type=float, default=1.0)
    sp.set_defaults(func=cmd_suite)

    sp = sub.add_parser("factor", help="factor a matrix, print schedule + diagnostics")
    add_matrix_opts(sp)
    sp.add_argument("--fill-level", type=int, default=0, help="ILU(k) level")
    sp.add_argument("--tau", type=float, default=0.0, help="fixed-pattern drop tolerance")
    sp.add_argument("--modified", action="store_true", help="MILU compensation")
    sp.add_argument("--alpha", type=int, default=16, help="min rows per level")
    sp.set_defaults(func=cmd_factor)

    sp = sub.add_parser("simulate", help="simulated speedup curve")
    add_matrix_opts(sp)
    sp.add_argument(
        "--machine",
        default="haswell",
        help="'haswell', 'knl', or a core count for a generic machine",
    )
    sp.add_argument("--threads", default="1,2,4,8,14", help="comma-separated thread counts")
    sp.add_argument(
        "--overhead-scale",
        type=float,
        default=1 / 30,
        help="latency scaling for scaled-down matrices (see DESIGN.md)",
    )
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("solve", help="Krylov solve with a chosen preconditioner")
    add_matrix_opts(sp)
    sp.add_argument("--solver", choices=["cg", "gmres", "bicgstab"], default="gmres")
    sp.add_argument("--precond", choices=["ilu", "ssor", "none"], default="ilu")
    sp.add_argument("--tol", type=float, default=1e-8)
    sp.add_argument("--maxiter", type=int, default=5000)
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_solve)

    # routed early in main(); listed here for --help only (no add_help:
    # -h/--help fall through to the passthrough's own parser)
    for name, (_, help_text) in PASSTHROUGH.items():
        sub.add_parser(name, help=help_text, add_help=False)

    sp = sub.add_parser("obs", help="observability: trace, export, compare")
    obs_sub = sp.add_subparsers(dest="obs_command", required=True)

    def add_obs_run_opts(osp):
        add_matrix_opts(osp)
        osp.add_argument("--threads", type=int, default=8, help="thread count to trace")
        osp.add_argument(
            "--machine",
            default="haswell",
            help="'haswell', 'knl', or a core count for a generic machine",
        )
        osp.add_argument(
            "--overhead-scale",
            type=float,
            default=1 / 30,
            help="latency scaling for scaled-down matrices (see DESIGN.md)",
        )

    osp = obs_sub.add_parser("report", help="flamegraph summary + per-thread breakdown")
    add_obs_run_opts(osp)
    osp.set_defaults(func=cmd_obs_report)

    osp = obs_sub.add_parser("export", help="write a Chrome trace-event JSON file")
    add_obs_run_opts(osp)
    osp.add_argument("--out", default="trace.json", help="output path")
    osp.add_argument(
        "--scheduler",
        default=None,
        choices=["p2p", "barrier", "superstep", "elastic", "syncfree"],
        help="add a pid-4 timeline of this trisolve scheduler's simulated "
        "forward solve (superstep boundaries / correction sweeps / lanes)",
    )
    osp.set_defaults(func=cmd_obs_export)

    osp = obs_sub.add_parser("diff", help="compare two metrics snapshots")
    osp.add_argument("old", help="baseline metrics JSON (snapshot or BENCH_obs.json)")
    osp.add_argument("new", help="candidate metrics JSON")
    osp.add_argument(
        "--rel-threshold",
        type=float,
        default=0.0,
        help="hide rows whose relative change is below this",
    )
    osp.set_defaults(func=cmd_obs_diff)
    return p


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    cache_size = os.environ.get("REPRO_SYMBOLIC_CACHE_SIZE")
    if cache_size:
        from .kernels import configure_default_cache

        try:
            configure_default_cache(max_entries=int(cache_size))
        except ValueError as exc:
            print(f"error: REPRO_SYMBOLIC_CACHE_SIZE={cache_size!r}: {exc}", file=sys.stderr)
            return 2
    # routed before the parser runs, so every option ("verify --list-rules",
    # "verify --help") reaches the passthrough's own parser
    if argv and argv[0] in PASSTHROUGH:
        module = importlib.import_module(PASSTHROUGH[argv[0]][0])
        return module.main(argv[1:])
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
