"""Trisolve scheduler crossover study (``docs/schedulers.md``).

Simulates every scheduler in :mod:`repro.sched` over a grid of DAG
shapes × machines × core counts × staleness budgets, and gates the
subsystem's contracts:

* every superstep plan is a valid topological execution (structural
  validation plus a happens-before replay of its barrier schedule);
* the modes with their own numerics are **bit-identical** to the
  level-batched reference solve, the apply of ``factor_solver``: the
  real-thread superstep executor (lower then upper plan, 4 threads) and
  elastic at ``tol == 0`` (p2p, barrier and syncfree solve through the
  reference itself);
* staleness mode (``elastic_tol > 0``) converges within tolerance;
* at least one new scheduler beats p2p by ≥ 1.3× simulated solve time
  on at least one shape × machine point (the crossover exists).

The crossover narrative the full run records: superstep wins where
levels are thin and spins are slow (deep chains on KNL-class cores —
the DAG partition keeps a chain's rows on one thread and pays *no*
sync, while p2p's round-robin dealing pays a spin per row); elastic's
exact fixpoint prices every correction sweep, so it trails badly on
chains (``final_sweep`` grows with depth) and narrows only on
shallow-wide shapes; syncfree matches p2p in the DES (both are
poll-priced) but is the schedule of record on the ``gpulike`` preset,
where the barrier times recorded alongside show a device-wide barrier
costing thousands of flag polls.

Run as a script::

    PYTHONPATH=src python benchmarks/bench_sched.py           # full run,
        # records benchmarks/results/BENCH_sched.json
    PYTHONPATH=src python benchmarks/bench_sched.py --check   # fast CI
        # gate: exits non-zero on any broken contract
"""

import sys

import numpy as np

from repro.kernels.trisolve import factor_solver
from repro.kernels import cached_analysis, clear_default_cache
from repro.machine import SimMachine, gpulike
from repro.runtime import threaded_trisolve_superstep
from repro.sched import (
    SchedOptions,
    build_superstep_plan,
    elastic_solve,
    simulate_schedule,
    superstep_stats,
    validate_superstep_plan,
)
from repro.verify import replay_superstep_schedule

from bench_util import HASWELL, KNL, SCALE, bench_main
from shapes import chain_matrix, grid_matrix, wide_matrix

GPULIKE = gpulike().scaled_overheads(SCALE)

#: the schedulers whose wins the crossover gate may count
NEW_SCHEDULERS = ("superstep", "elastic", "syncfree")


# ----------------------------------------------------------------------
# DAG shapes — builders shared with the controller tests (shapes.py)
# ----------------------------------------------------------------------
def shapes(check):
    if check:
        return {"chain-200": chain_matrix(200), "wide-12x64": wide_matrix(12, 64),
                "grid-16": grid_matrix(16)}
    return {
        "chain-400": chain_matrix(400),
        "chain-1200": chain_matrix(1200),
        "wide-16x128": wide_matrix(16, 128),
        "wide-48x32": wide_matrix(48, 32),
        "grid-24": grid_matrix(24),
        "grid-48": grid_matrix(48),
    }


def machines(check):
    if check:
        return [("haswell", HASWELL, 14), ("knl", KNL, 68), ("gpulike", GPULIKE, 256)]
    return [
        ("haswell", HASWELL, 14),
        ("haswell", HASWELL, 28),
        ("knl", KNL, 68),
        ("gpulike", GPULIKE, 256),
        ("gpulike", GPULIKE, 1024),
    ]


# ----------------------------------------------------------------------
# contract gates
# ----------------------------------------------------------------------
def check_plans(F, *, thread_counts=(2, 4, 8)):
    """Superstep plans must be valid topological executions (both parts)."""
    failures = []
    for part in ("lower", "upper"):
        for p in thread_counts:
            plan = build_superstep_plan(F, part, n_threads=p)
            errs = validate_superstep_plan(plan, F)
            failures += [f"{part}/p={p}: {e}" for e in errs]
            rep = replay_superstep_schedule(F, plan)
            if not rep.ok:
                failures.append(
                    f"{part}/p={p}: race replay found {len(rep.witnesses)} witness(es)"
                )
    return failures


def check_numerics(F, *, staleness=(1, 4), tol_mode=1e-11):
    """Exact modes bit-identical to the level sweep; staleness mode within tolerance.

    p2p, barrier and syncfree solve through ``factor_solver``
    itself; the real-thread superstep executor and exact elastic run
    their own numerics and must reproduce it bit for bit.
    """
    failures = []
    rng = np.random.default_rng(7)
    b = rng.standard_normal(F.n_rows)
    ref = factor_solver(F)(b)
    an = cached_analysis(F)
    y = threaded_trisolve_superstep(F, b, an.superstep_plan("lower", n_threads=4))
    x = threaded_trisolve_superstep(F, y, an.superstep_plan("upper", n_threads=4))
    if not np.array_equal(x, ref):
        failures.append("superstep executor (p=4): differs from the level "
                        f"sweep (max |Δ|={np.abs(x - ref).max():.3e})")
    for st in staleness:
        opts = SchedOptions(staleness=st)
        x = elastic_solve(F, b, opts=opts)
        if not np.array_equal(x, ref):
            failures.append(f"elastic(staleness={st}, tol=0): differs from the level sweep")
        xt = elastic_solve(F, b, opts=opts.with_(elastic_tol=tol_mode))
        err = float(np.abs(xt - ref).max()) / max(1.0, float(np.abs(ref).max()))
        if err > 1e-8:
            failures.append(
                f"elastic(staleness={st}, tol={tol_mode}): relative error {err:.3e}"
            )
    return failures


# ----------------------------------------------------------------------
# crossover study
# ----------------------------------------------------------------------
def crossover(check):
    """Simulated solve time of every scheduler on every (shape, machine)."""
    staleness_budgets = (1, 4) if check else (1, 4, 8)
    points = []
    for shape, F in shapes(check).items():
        clear_default_cache()
        an = cached_analysis(F)
        for mname, spec, p in machines(check):
            m = SimMachine(spec, p)
            opts = SchedOptions(n_threads=p)
            times = {
                name: simulate_schedule(name, F, m, opts=opts)
                for name in ("p2p", "barrier", "superstep", "syncfree")
            }
            for st in staleness_budgets:
                times[f"elastic-s{st}"] = simulate_schedule(
                    "elastic", F, m, opts=opts.with_(staleness=st)
                )
            best_new = min(
                v for k, v in times.items()
                if k.split("-")[0] in NEW_SCHEDULERS
            )
            pl = an.superstep_plan("lower", n_threads=p, opts=opts)
            points.append(
                {
                    "shape": shape,
                    "n": int(F.n_rows),
                    "machine": mname,
                    "p": p,
                    "times": {k: float(v) for k, v in times.items()},
                    "speedup_vs_p2p": float(times["p2p"] / best_new),
                    "superstep": superstep_stats(pl),
                }
            )
    return points


def run(check):
    """Plan validity + numeric identity per shape, then the crossover study."""
    failures = []
    print("bench_sched: plan validity + numeric identity")
    for shape, F in shapes(check).items():
        for f in check_plans(F):
            failures.append(f"{shape}: {f}")
        for f in check_numerics(F):
            failures.append(f"{shape}: {f}")
        print(f"  {shape:12s} n={F.n_rows:6d}: plans valid, exact modes bit-identical")

    print("bench_sched: crossover study")
    points = crossover(check)
    best = max(points, key=lambda e: e["speedup_vs_p2p"])
    for e in points:
        t = e["times"]
        print(
            f"  {e['shape']:12s} {e['machine']:8s} p={e['p']:4d} "
            f"p2p={t['p2p']:.3e} superstep={t['superstep']:.3e} "
            f"elastic={min(v for k, v in t.items() if k.startswith('elastic')):.3e} "
            f"syncfree={t['syncfree']:.3e} best_new={e['speedup_vs_p2p']:.2f}x"
        )
    print(
        f"  best crossover point: {best['shape']} on {best['machine']} "
        f"p={best['p']} -> {best['speedup_vs_p2p']:.2f}x vs p2p"
    )
    if best["speedup_vs_p2p"] < 1.3:
        failures.append(
            f"no crossover: best new-scheduler win is {best['speedup_vs_p2p']:.2f}x "
            "(need >= 1.3x at some shape x machine point)"
        )
    if check and not failures:
        print("sched check: plans=valid exact=bit-identical staleness=converged "
              "crossover>=1.3x")
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "scale": SCALE,
            "note": "trisolve scheduler crossover: superstep/elastic/syncfree vs "
            "p2p/barrier; exact modes are bit-identical to the level sweep, the "
            "crossover gate requires one >=1.3x win vs p2p",
        },
        "points": points,
        "best_crossover": best,
        "gate": {"min_speedup_vs_p2p": 1.3, "met": best["speedup_vs_p2p"] >= 1.3},
        "failures": failures,
    }
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("sched", run, __doc__))
