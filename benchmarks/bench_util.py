"""Shared benchmark utilities: cached matrices, machines, result files.

Every gated bench (``bench_{kernels,resilience,obs,sched,tune,serve,
cluster,apps}.py``) defines one ``run(check, ...) -> (record, failures)``
and hands it to :func:`bench_main`, the one command line they share::

    PYTHONPATH=src python benchmarks/bench_<name>.py           # full run,
        # records benchmarks/results/BENCH_<name>.json
    PYTHONPATH=src python benchmarks/bench_<name>.py --check   # fast CI
        # gate: writes nothing, exits non-zero on any failed gate

The suite matrices are ~1/30 of the published sizes, so the simulated
machines scale their fixed latencies by the same factor (see
``MachineSpec.scaled_overheads``) — keeping the overhead-to-work ratio,
the quantity the paper's comparisons actually probe.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from repro import (
    JavelinILU,
    JavelinOptions,
    ScheduleOptions,
    SimMachine,
    build_matrix,
    haswell,
    knl,
    preorder_for_javelin,
)
from repro.analysis import format_table

# suite matrices are a few thousand rows vs the paper's ~100k-1.5M
SCALE = 1 / 30

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")

HASWELL = haswell().scaled_overheads(SCALE)
KNL = knl().scaled_overheads(SCALE)


def machine(spec, p):
    return SimMachine(spec, p)


@functools.lru_cache(maxsize=None)
def suite_matrix(name, preorder="nd", scale=1.0):
    """Build + preorder one suite matrix (cached per session)."""
    A = build_matrix(name, scale=scale)
    return preorder_for_javelin(A, method=preorder)


@functools.lru_cache(maxsize=None)
def suite_ilu(name, preorder="nd", alpha=16, scale=1.0):
    """A set-up (symbolic phase done) JavelinILU for a suite matrix."""
    A = suite_matrix(name, preorder=preorder, scale=scale)
    opts = JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=alpha))
    return JavelinILU(opts).setup(A)


def best_two_stage(ilu, mach):
    """The paper's LS+Lower bars pick the best lower configuration."""
    ls = ilu.simulate_factor(mach, lower=False).total
    two = ilu.simulate_factor(mach, lower=True).total
    return min(ls, two)


def write_result(name, text):
    """Persist a reproduction table and echo it to stdout."""
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, f"{name}.txt")
    with open(path, "w") as fh:
        fh.write(text + "\n")
    print()
    print(text)
    return path


def report(name, rows, columns=None, title=None):
    return write_result(name, format_table(rows, columns=columns, title=title))


def timeit_best(fn, *args, repeats=3):
    """Best-of-``repeats`` wall-clock timing.

    Returns ``(best_seconds, output, samples)`` where ``samples`` is
    the per-repeat list — the regression tracker
    (``benchmarks/regress.py``) uses the sample spread as each metric's
    noise floor, so record the samples next to the best-of value
    (conventionally under a ``*_samples`` key).
    """
    return timeit_alternating([lambda: fn(*args)], repeats=repeats)[0]


def timeit_alternating(fns, repeats=3):
    """:func:`timeit_best` of each zero-argument callable in ``fns``, in turns.

    Each round calls every function once, in order, so a burst of load
    on a shared machine lands on all of them alike and the ratio of two
    best-of times stays fair.  Returns one ``(best_seconds, output,
    samples)`` per function.
    """
    import time

    outs = [None] * len(fns)
    samples = [[] for _ in fns]
    for _ in range(repeats):
        for i, fn in enumerate(fns):
            t0 = time.perf_counter()
            outs[i] = fn()
            samples[i].append(time.perf_counter() - t0)
    return [(min(s), out, s) for out, s in zip(outs, samples)]


def level_ordered_pattern(nx):
    """ILU(0) pattern of ``grid2d(nx)`` in level order, plus its schedule.

    The shared setup of the simulation-driven benches: build the
    pattern, level-schedule it, permute rows/cols into level order and
    re-schedule the permuted pattern (whose levels are now contiguous).
    """
    from repro.core.symbolic import ilu0_pattern
    from repro.matrices import grid2d
    from repro.ordering.levelsets import level_schedule

    S = ilu0_pattern(grid2d(nx))
    perm = level_schedule(S).permutation()
    Sp = S.permute(row_perm=perm, col_perm=perm)
    return Sp, level_schedule(Sp)


def level_ordered_matrix(nx):
    """``grid2d(nx)`` permuted into level order: ``(A, S, schedule)``.

    The numeric sibling of :func:`level_ordered_pattern`, for benches
    that factor real values (the threaded runtime) rather than
    simulate on the pattern alone.
    """
    from repro.core.symbolic import ilu0_pattern
    from repro.matrices import grid2d
    from repro.ordering.levelsets import level_schedule

    A0 = grid2d(nx)
    perm = level_schedule(ilu0_pattern(A0)).permutation()
    A = A0.permute(perm, perm)
    S = ilu0_pattern(A)
    return A, S, level_schedule(S)


class Gates:
    """Named pass/fail gates, printed as ``[ok]``/``[FAIL] name`` as they land.

    Call it with ``(ok, name)``; the failed names collect in
    :attr:`failures`, the list a bench's ``run`` returns.
    """

    def __init__(self):
        self.failures = []

    def __call__(self, ok, name):
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            self.failures.append(name)


def bench_main(name, run, doc, argv=None, **options):
    """The command line of every gated bench; returns the exit code.

    Parses ``--check`` plus any bench-specific ``options`` (each
    ``--<key>`` with its ``argparse`` keywords), calls
    ``run(check=..., **options)``, writes the record to
    ``RESULTS_DIR/BENCH_<name>.json`` in full mode only, and prints the
    failures.  Exit code 1 when any gate failed, else 0.
    """
    ap = argparse.ArgumentParser(description=doc)
    ap.add_argument(
        "--check", action="store_true", help="fast CI gate: small cases, write nothing"
    )
    for key, kwargs in options.items():
        ap.add_argument(f"--{key}", **kwargs)
    args = ap.parse_args(argv)
    record, failures = run(**vars(args))
    if not args.check:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        path = os.path.join(RESULTS_DIR, f"BENCH_{name}.json")
        with open(path, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
        print(f"wrote {path}")
    for f in failures:
        print(f"FAIL: {f}", file=sys.stderr)
    print(f"bench_{name}: {len(failures)} gate(s) failed" if failures
          else f"bench_{name}: all gates passed")
    return 1 if failures else 0
