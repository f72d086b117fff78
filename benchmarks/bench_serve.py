"""Serving-layer benchmark: gate and record the batched solve service.

Usage::

    PYTHONPATH=src python benchmarks/bench_serve.py
        # records benchmarks/results/BENCH_serve.json
    PYTHONPATH=src python benchmarks/bench_serve.py --check
        # fast CI gate: determinism + batch identity + fault termination

The bench exercises every acceptance property of the serving layer and
records the evidence in one JSON file:

* **workload** — a seeded open-loop run (Zipf pattern mix, drifting
  RHS streams, mixed tenants/priorities/deadlines): throughput,
  p50/p99 latency, deadline-miss and reject rates, mean batch width;
* **replay** — the same spec run twice must produce identical outcome
  sequences and bit-identical solutions (the core is deterministic);
* **batch_identity** — the workload served with batching on versus
  ``max_batch=1`` must give bit-identical solutions per request
  (batching is a scheduling decision, never a numerical one);
* **speedup** — wall-clock throughput of the warm-cache multi-RHS
  solve versus serving the same columns one at a time, at widths
  8/16/32 (gate: ≥ 3× at some width ≥ 8);
* **faults** — a seeded :class:`~repro.resilience.FaultPlan`
  (straggler shard, spin faults, dropped completions) under tight
  deadlines: every request must still terminate in a structured
  outcome, and the faulted run must replay deterministically too.

``--check`` shrinks the workload and skips the wall-clock timing (it
is the one non-deterministic measurement) but still enforces replay,
batch identity and fault termination — the properties CI can assert
exactly.
"""

import dataclasses
import time

import numpy as np

from repro.matrices import grid2d
from repro.obs.metrics import MetricsRegistry, validate_metrics
from repro.resilience import FaultPlan, ResilientFactor
from repro.serve.batcher import BatchPolicy
from repro.serve.request import OUTCOMES
from repro.serve.workers import CostModel, SolveService, blocked_richardson
from repro.serve.workload import (
    WorkloadSpec,
    build_matrices,
    generate_requests,
    outcome_signature,
    solutions_identical,
    summarize,
)
from repro.verify.conservation import check_conservation

from bench_util import Gates, bench_main

SEED = 0


def workload_spec(check):
    """The seeded workload of either mode."""
    if check:
        return WorkloadSpec(
            seed=SEED,
            n_requests=48,
            rate=600.0,
            patterns=("grid2d-12", "grid2d-16"),
            deadline_lo=0.02,
            deadline_hi=0.2,
            maxiter=60,
        )
    return WorkloadSpec(
        seed=SEED,
        n_requests=240,
        rate=500.0,
        patterns=("grid2d-16", "grid2d-24", "convect2d-16", "circuit-400"),
        deadline_lo=0.05,
        deadline_hi=0.5,
        maxiter=80,
    )


def fault_workload(spec):
    """``spec`` under tight deadlines, plus its seeded fault plan."""
    plan = FaultPlan.seeded(
        2,
        n_rows=spec.n_requests,
        seed=SEED + 1,
        n_stragglers=1,
        slowdown=4.0,
        spin_fault_frac=0.1,
        dropped=((0, 3), (1, 7)),
        watchdog_timeout=0.02,
    )
    return dataclasses.replace(spec, deadline_lo=0.01, deadline_hi=0.1), plan


def run_workload(spec, *, registry=None, fault_plan=None, max_batch=16, capacity=64):
    """Serve ``spec`` once on a fresh service; returns ``(service, results)``."""
    matrices = build_matrices(spec.patterns)
    service = SolveService(
        matrices,
        n_shards=2,
        capacity=capacity,
        batch_policy=BatchPolicy(max_batch=max_batch, max_wait=0.01),
        cost=CostModel(),
        fault_plan=fault_plan,
        registry=registry,
    )
    results = service.run(generate_requests(spec, matrices))
    return service, results


def _measure_speedup(widths, *, nx=48, tol=1e-8, maxiter=60):
    """Warm-cache wall-clock: one multi-RHS solve vs a per-column loop."""
    A = grid2d(nx)
    rf = ResilientFactor().setup(A)
    # a minimal FactorEntry stand-in: the measured object is the applies
    entry = dataclasses.make_dataclass(
        "E", ["factor", "apply_multi"], namespace={"refresh_applies": lambda self: None}
    )(rf, rf.build_multi_solver())
    rng = np.random.default_rng(11)
    out = {}
    target_met = False
    for k in widths:
        B = rng.standard_normal((A.n_rows, k))
        batch_samples = []
        seq_samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            blocked_richardson(A, entry, B, tol, maxiter)
            batch_samples.append(time.perf_counter() - t0)
            t0 = time.perf_counter()
            for j in range(k):
                blocked_richardson(A, entry, B[:, j : j + 1], tol, maxiter)
            seq_samples.append(time.perf_counter() - t0)
        best_batch = min(batch_samples)
        best_seq = min(seq_samples)
        speedup = best_seq / best_batch
        out[str(k)] = {
            "batched_s": best_batch,
            "sequential_s": best_seq,
            "speedup": speedup,
            # per-repeat samples: the regression tracker's noise floor
            "batched_samples": batch_samples,
            "sequential_samples": seq_samples,
        }
        if k >= 8 and speedup >= 3.0:
            target_met = True
    out["target_met"] = target_met
    return out


def run(check):
    """The serving gates in order; returns ``(record, failures)``."""
    gate = Gates()
    spec = workload_spec(check)

    print("serve bench: workload")
    registry = MetricsRegistry()
    _, results = run_workload(spec, registry=registry)
    summary = summarize(results)
    gate(len(results) == spec.n_requests, "every request terminated")
    gate(all(r.outcome in OUTCOMES for r in results), "all outcomes structured")
    # the conservation auditor is the stronger form of the two gates
    # above: exactly one structured outcome per submitted request id,
    # solutions present and finite exactly when served
    conserv = check_conservation(
        generate_requests(spec, build_matrices(spec.patterns)), results
    )
    for v in conserv.violations[:4]:
        print(f"    {v}")
    gate(conserv.ok, "request conservation audited")

    print("serve bench: deterministic replay")
    _, replay = run_workload(spec)
    replay_ok = (
        outcome_signature(results) == outcome_signature(replay)
        and solutions_identical(results, replay)
    )
    gate(replay_ok, "same seed replays bit-identically")

    print("serve bench: batched vs sequential identity")
    # best-effort deadlines and an unbounded queue: admission and
    # demotion out of the picture, so the comparison is purely numerical
    # (sequential serving is slower on the virtual clock and would
    # otherwise overflow the queue and reject the tail)
    ident_spec = dataclasses.replace(spec, deadline_lo=1e9, deadline_hi=1e9)
    _, batched = run_workload(ident_spec, max_batch=32, capacity=spec.n_requests)
    _, seq = run_workload(ident_spec, max_batch=1, capacity=spec.n_requests)
    ident_ok = solutions_identical(batched, seq) and [
        r.outcome for r in batched
    ] == [r.outcome for r in seq]
    gate(ident_ok, "batched solutions bit-identical to max_batch=1")
    mean_width = float(np.mean([r.batch_size for r in batched if r.batch_size]))
    gate(mean_width > 1.0, "batching actually coalesced requests")

    print("serve bench: faulted workload")
    fault_spec, plan = fault_workload(spec)
    _, faulted = run_workload(fault_spec, fault_plan=plan)
    _, faulted2 = run_workload(fault_spec, fault_plan=plan)
    gate(
        len(faulted) == spec.n_requests
        and all(r.outcome in OUTCOMES for r in faulted),
        "faulted run: every request terminated with a structured outcome",
    )
    gate(
        outcome_signature(faulted) == outcome_signature(faulted2),
        "faulted run replays deterministically",
    )
    fault_conserv = check_conservation(
        generate_requests(fault_spec, build_matrices(fault_spec.patterns)), faulted
    )
    for v in fault_conserv.violations[:4]:
        print(f"    {v}")
    gate(fault_conserv.ok, "faulted run conserves requests")
    fault_summary = summarize(faulted)

    speedup = None
    if not check:
        print("serve bench: warm-cache batched speedup (wall clock)")
        speedup = _measure_speedup((8, 16, 32))
        gate(speedup["target_met"], "≥3x batched throughput at some width ≥ 8")
        for k in ("8", "16", "32"):
            print(f"    width {k:>2}: {speedup[k]['speedup']:.2f}x")

    snapshot = registry.snapshot()
    gate(not validate_metrics(snapshot), "metrics snapshot validates")

    record = {
        "bench": "serve",
        "mode": "check" if check else "full",
        "tuned": False,
        "spec": dataclasses.asdict(spec),
        "workload": summary,
        "fault_workload": fault_summary,
        "replay_identical": replay_ok,
        "batch_identity": ident_ok,
        "mean_batch_width": mean_width,
        "speedup": speedup,
        "failures": gate.failures,
        "metrics": snapshot,
    }
    print(
        f"workload: served {summary['outcomes'].get('served', 0)}/{summary['n_requests']}"
        f", p50 {summary['p50_latency']:.4f}, p99 {summary['p99_latency']:.4f}, "
        f"mean batch {summary['mean_batch_size']:.2f}, "
        f"goodput {summary['goodput']:.1f}/s"
    )
    return record, gate.failures


if __name__ == "__main__":
    raise SystemExit(bench_main("serve", run, __doc__))
