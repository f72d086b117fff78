"""Wall-clock end-to-end benchmark of the Javelin ILU stack.

Run from the repository root::

    python3 e2ebench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0

``--workload`` is ``oneshot``, ``timestep`` or ``serve`` (see README.md
next to this file).  The run sets up its inputs from ``--seed`` several
times (the median is ``setup_s``), then runs ops while one more fits in
``--seconds`` (at least three), checks every solution, and prints every
metric by name with its unit.  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` patches
span wrappers onto the library's layer boundaries, traces every other
op, and reports the per-layer metrics, the attribution table and the
tracing overhead (traced vs untraced ops of the same run).  Results,
digests and spans are also written under ``--out``.

The program under test is imported from ``src/`` of the checkout this
file sits in; without it the run exits non-zero before measuring.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent

SETUP_REPEATS = 3
#: every run does at least this many ops; the output digest covers them.
#: Op 0 warms up (lazy imports, allocator, interpreter specialization):
#: it is verified and digested but not a timing sample, and the
#: ``--seconds`` window starts after it.
MIN_OPS = 3
MIN_COVERAGE = 0.95
#: wall times are reported at the speed where the reference kernel
#: takes this long (see README.md, "Machine speed")
REF_NOMINAL_S = 0.010

#: the issue-level names of each workload's headline numbers; only
#: ``throughput_per_s`` is also a gated metric (see README.md)
HEADLINES = {
    "oneshot": {"solve_s": "op_s"},
    "timestep": {"step_s": "op_s", "step_tail_s": "op_tail_s"},
    "serve": {"req_per_s": "throughput_per_s"},
}
LAYERS = ("ordering", "core", "resilience", "kernels", "solvers", "sparse", "serve", "apps")
KRYLOV = ("solvers.gmres", "solvers.richardson")


def import_program():
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    pkg = ROOT_DIR / "src" / "repro" / "__init__.py"
    if not pkg.is_file():
        raise SystemExit(f"e2ebench: {pkg.relative_to(ROOT_DIR)} not found in the checkout")
    sys.path.insert(0, str(pkg.parent.parent))
    import repro
    import repro.obs.spans

    if Path(repro.__file__).resolve() != pkg.resolve():
        raise SystemExit(f"e2ebench: imported repro from {repro.__file__}, not {pkg}")
    if repro.obs.spans.enabled():
        raise SystemExit("e2ebench: repro.obs tracing must be off")


def machine():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
    }


def tail(samples):
    """Highest percentile with at least ten samples beyond it (nearest rank).

    Returns ``(q, value)``; with ten or fewer samples that percentile
    does not exist and the maximum is returned as ``q = 100``.
    """
    xs = sorted(samples)
    n = len(xs)
    for q in range(99, 0, -1):
        k = math.ceil(q * n / 100)
        if n - k >= 10:
            return q, xs[k - 1]
    return 100, xs[-1]


def run_workload(args, tracer, wl):
    """Set up, warm up, then run ops for ``args.seconds``.

    Setups and ops are recorded with their measured (``wall_s``) and
    nominal-speed (``nominal_s``) times; ``refs`` collects every
    reference-kernel sample.
    """
    from workloads import Clock

    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        clock = Clock(tracer, refs, REF_NOMINAL_S)
        digests = wl.setup(clock)
        setups.append({"wall_s": clock.wall, "nominal_s": clock.nominal,
                       "digests": digests, "structure": getattr(wl, "structure", None)})
    ops = []
    t_end, last = math.inf, 0.0
    # start an op only if one as long as the previous fits in the window
    while len(ops) < MIN_OPS or time.perf_counter() + last <= t_end:
        t0 = time.perf_counter()
        i = len(ops)
        traced = bool(args.trace) and i > 0 and i % 2 == 0
        tracer.on, tracer.op_id = traced, i
        clock = Clock(tracer, refs, REF_NOMINAL_S)
        res = wl.op(clock)
        tracer.on = False
        ops.append({"wall_s": clock.wall, "nominal_s": clock.nominal, "warmup": i == 0,
                    "traced": traced, "res": res, "structure": wl.structure})
        last = time.perf_counter() - t0
        if i == 0:
            t_end = time.perf_counter() + args.seconds
    return setups, ops, refs


def digest_of(parts):
    h = hashlib.blake2b(digest_size=16)
    for p in parts:
        h.update(str(p).encode())
    return h.hexdigest()


def end_to_end(ops, setups, key="nominal_s"):
    """The end-to-end metrics from untraced, non-warm-up ops' ``key`` times."""
    plain = [o for o in ops if not (o["warmup"] or o["traced"])]
    times = [o[key] for o in plain]
    q, tail_s = tail(times)
    m = {
        "throughput_per_s": (sum(o["res"].items for o in plain) / sum(times), "1/s"),
        "setup_s": (statistics.median(s[key] for s in setups), "s"),
    }
    detail = {"samples": len(times), "op_s": statistics.median(times),
              "tail_percentile": q, "op_tail_s": tail_s}
    return m, detail


def per_layer(ops, spans, structure):
    from tracer import summarize_spans

    measured = [o for o in ops if not o["warmup"]]
    traced = [o for o in measured if o["traced"]]
    plain = [o for o in measured if not o["traced"]]
    n = len(traced)
    span_ops, by_name = summarize_spans(spans)
    # spans are wall-clock; rescale them like the traced ops' own times
    speed = sum(o["nominal_s"] for o in traced) / sum(o["wall_s"] for o in traced)

    def total(*names, key="total_s"):
        return speed * sum(by_name[x][key] for x in names if x in by_name)

    def calls(name):
        return by_name[name]["calls"] if name in by_name else 0

    def mean_count(key):
        return statistics.fmean(o["res"].counts.get(key, 0) for o in measured)

    wall = sum(o["wall_s"] for o in span_ops.values()) * speed
    layer_self = {
        layer: speed * sum(o["layers"].get(layer, 0.0) for o in span_ops.values())
        for layer in LAYERS
    }
    coverage = [1.0 - o["layers"].get("bench", 0.0) / o["wall_s"] for o in span_ops.values()]
    structure_sum = {
        k: sum(s[k] for s in structure.values()) for k in ("levels", "lower_rows", "factor_nnz")
    }
    m = {
        "ordering.preorder_s": (total("ordering.preorder") / n, "s"),
        "core.setup_s": (total("core.setup") / n, "s"),
        "core.factor_s": (total("core.factor") / n, "s"),
        "resilience.refactor_s": (total("resilience.refactor") / n, "s"),
        "kernels.solver_build_s": (total("kernels.solver_build") / n, "s"),
        "kernels.apply_s": (total("kernels.apply") / max(1, calls("kernels.apply")), "s"),
        "kernels.apply_calls": (calls("kernels.apply") / n, "count"),
        "kernels.cache_hits": (mean_count("cache_hits"), "count"),
        "kernels.cache_misses": (mean_count("cache_misses"), "count"),
        "solvers.krylov_s": (total(*KRYLOV) / n, "s"),
        "solvers.krylov_self_s": (total(*KRYLOV, key="self_s") / n, "s"),
        "solvers.iters": (statistics.fmean(o["res"].iters for o in measured), "count"),
        "sparse.spmv_s": (total("sparse.spmv") / n, "s"),
        "apps.matrix_s": (total("apps.matrix") / n, "s"),
        "serve.update_s": (total("serve.update") / n, "s"),
        "serve.step_s": (total("serve.step") / n, "s"),
        "serve.run_s": (total("serve.run") / n, "s"),
        "serve.batch_width": (mean_count("batch_width"), "count"),
        "serve.cold_builds": (mean_count("cold_builds"), "count"),
        "serve.virtual_p50_s": (mean_count("virtual_p50_s"), "s_virtual"),
        "serve.virtual_p99_s": (mean_count("virtual_p99_s"), "s_virtual"),
        "core.levels": (structure_sum["levels"], "count"),
        "core.lower_rows": (structure_sum["lower_rows"], "count"),
        "core.factor_nnz": (structure_sum["factor_nnz"], "count"),
        "obs.trace_overhead_frac": (
            statistics.median(o["nominal_s"] for o in traced)
            / statistics.median(o["nominal_s"] for o in plain) - 1.0,
            "frac",
        ),
        "trace.coverage_min": (min(coverage), "frac"),
        "attr.front_share": ((layer_self["ordering"] + layer_self["core"]) / wall, "frac"),
        "attr.krylov_share": (total(*KRYLOV) / wall, "frac"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_self[layer] / wall, "frac")
    return m, min(coverage) >= MIN_COVERAGE


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("oneshot", "timestep", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the benchmark's own tests")
    p.add_argument("--out", default=str(BENCH_DIR / "out"),
                   help="directory for the result record and spans")
    args = p.parse_args(argv)

    import_program()
    from tracer import Tracer, install
    from workloads import WORKLOADS

    tracer = Tracer()
    undo = install(tracer) if args.trace else None
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size)
        setups, ops, refs = run_workload(args, tracer, wl)
    finally:
        if undo is not None:
            undo()

    attempted = sum(o["res"].items for o in ops)
    failed = sum(o["res"].failed for o in ops)
    structure = ops[0]["structure"]
    op_digests = [o["res"].digest for o in ops]
    checks = {
        "setup_repeats_identical": len({repr((s["digests"], s["structure"])) for s in setups})
        == 1,
        "structure_identical": all(o["structure"] == structure for o in ops),
        # oneshot passes and serve rounds replay the same inputs
        "ops_replay_identical": not wl.replays or len(set(op_digests)) == 1,
    }
    digests = {
        "inputs": setups[0]["digests"]["inputs"],
        "outputs": digest_of([setups[0]["digests"]["warm"], *op_digests[:MIN_OPS]]),
        "structure": digest_of([json.dumps(structure, sort_keys=True)]),
    }
    if args.trace:
        metrics, checks["span_coverage"] = per_layer(ops, tracer.spans, structure)
        raw, detail = metrics, {}
    else:
        metrics, detail = end_to_end(ops, setups)
        raw, _ = end_to_end(ops, setups, key="wall_s")
    ref_s = statistics.median(refs)
    correct = failed == 0 and all(checks.values())

    info = machine()
    print("machine " + " ".join(f"{k}={v}" for k, v in info.items()))
    n_traced = sum(o["traced"] for o in ops)
    print(f"{args.workload} seed={args.seed} ops={len(ops)} traced_ops={n_traced} "
          f"items={attempted} reference_kernel={ref_s:.6g} s (median of {len(refs)})")
    print(f"  times are rescaled to a {REF_NOMINAL_S} s reference kernel; raw in parentheses")
    if not args.trace:
        headline = {**metrics, "op_s": (detail["op_s"], "s"),
                    "op_tail_s": (detail["op_tail_s"], "s")}
        for issue_name, name in HEADLINES[args.workload].items():
            value, unit = headline[name]
            note = f"  ({detail['samples']} samples)"
            if name == "op_tail_s":
                note = f"  (p{detail['tail_percentile']} of {detail['samples']} samples)"
            print(f"  {issue_name:<24} {value:.6g} {unit}{note}")
    print(f"  {'fail_frac':<24} {failed / attempted:.6g} frac  ({failed} of {attempted})")
    for name, (value, unit) in metrics.items():
        note = f"  ({raw[name][0]:.6g})" if value != raw[name][0] else ""
        print(f"  {name:<24} {value:.6g} {unit}{note}")
    if args.trace:
        shares = " ".join(f"{layer}={metrics['share.' + layer][0]:.3f}" for layer in LAYERS)
        print(f"  attribution (self time / op wall): {shares}")
        print(f"  front (ordering + core) share {metrics['attr.front_share'][0]:.3f}, "
              f"krylov share {metrics['attr.krylov_share'][0]:.3f}"
              + ("  (expected on oneshot: >= 0.8 and <= 0.1)" if args.workload == "oneshot" else ""))
    for key, st in structure.items():
        print(f"  structure {key}: " + " ".join(f"{k}={v}" for k, v in st.items()))
    print("  digests " + " ".join(f"{k}={v}" for k, v in digests.items()))
    print("  checks " + " ".join(f"{k}={v}" for k, v in checks.items()))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "machine": info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "raw_metrics": {k: {"value": v, "unit": u} for k, (v, u) in raw.items()},
        "reference_kernel_s_samples": refs,
        "detail": detail, "digests": digests, "checks": checks, "structure": structure,
        "setup_samples": [{k: s[k] for k in ("wall_s", "nominal_s")} for s in setups],
        "op_samples": [{k: o[k] for k in ("wall_s", "nominal_s", "warmup", "traced")}
                       | {"items": o["res"].items, "failed": o["res"].failed} for o in ops],
    }
    (out / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        cols = ["name", "start", "end", "parent", "op_id"]
        (out / f"{stem}-spans.json").write_text(json.dumps({"columns": cols, "spans": tracer.spans}))

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
