"""Cluster-layer benchmark: gate and record the fault-tolerant cluster.

Usage::

    PYTHONPATH=src python benchmarks/bench_cluster.py
        # records benchmarks/results/BENCH_cluster.json
    PYTHONPATH=src python benchmarks/bench_cluster.py --check
        # fast CI gate: conservation + replay + placement/storm bit identity

The bench drives :class:`~repro.cluster.ClusterService` (3 nodes,
replication 2) through the failure modes the subsystem exists for and
records the evidence in one JSON file:

* **workload** — a seeded open-loop run on a healthy cluster: request
  conservation (:func:`repro.verify.check_conservation`), served
  fraction, p50/p99 latency;
* **replay** — same workload + same :class:`~repro.cluster.NodeFaultPlan`
  twice ⇒ identical outcome sequences and bit-identical solutions;
* **placement identity** — the workload on 1 node versus the cluster
  must give bit-identical solutions per request (consistent-hash
  placement, replication and batching decide *where*, never *what*);
* **kill-one-node storm** — a rehearsal run finds the busiest node and
  an instant it is mid-batch; the storm kills it there, permanently,
  at steady load.  Gates: every request still terminates (failover +
  re-warm from replicas), conservation holds, and served fraction
  stays ≥ 0.9 with replication 2;
* **planted bug** — the same storm with ``drop_failover=True`` (the
  crash re-route deliberately dropped) must make the conservation
  checker *fail*: a checker that cannot catch a lost request guards
  nothing.  CI runs this in both modes;
* **scaling** (full mode) — a nodes × rate × crash-fraction grid of
  seeded chaos runs, recording served fraction and p99 latency per
  cell — the capacity/fault envelope the cluster sustains.

``--check`` shrinks the workload and skips the scaling grid but keeps
every exact gate — the properties CI can assert bit-for-bit.
"""

import dataclasses
from collections import Counter

import numpy as np

from repro.cluster import ClusterService, NodeFaultPlan
from repro.obs.chrome_trace import validate_events
from repro.obs.metrics import MetricsRegistry, validate_metrics
from repro.serve.batcher import BatchPolicy
from repro.serve.request import OUTCOMES
from repro.serve.workload import (
    WorkloadSpec,
    build_matrices,
    generate_requests,
    outcome_signature,
    solutions_identical,
    summarize,
)
from repro.verify import check_conservation

from bench_util import Gates, bench_main

SEED = 0
N_NODES = 3
#: replica count for zipf-head (hot) fingerprints
REPLICATION = 2


def _service(matrices, *, n_nodes=N_NODES, replication=REPLICATION, plan=None,
             registry=None, capacity=128, drop_failover=False, hedge_after=0.02):
    return ClusterService(
        matrices,
        n_nodes=n_nodes,
        replication=replication,
        capacity=capacity,
        batch_policy=BatchPolicy(max_batch=16, max_wait=0.01),
        node_fault_plan=plan,
        registry=registry,
        drop_failover=drop_failover,
        hedge_after=hedge_after,
    )


def _storm_plan(matrices, reqs):
    """Derive the kill-one-node storm from a faultless rehearsal.

    Deterministic chaos targeting: the victim is the node that served
    the most batches, and the kill instant is the midpoint of its
    median flight — guaranteed to catch in-flight work, so the storm
    always exercises loss + failover rather than landing in an idle
    gap.  Everything downstream of the rehearsal is a pure function of
    it, so the storm replays exactly.
    """
    rehearsal = _service(matrices)
    rehearsal.run(reqs)
    counts = Counter(rec["node"] for rec in rehearsal._timeline)
    victim = counts.most_common(1)[0][0]
    mids = sorted(
        0.5 * (rec["start"] + rec["finish"])
        for rec in rehearsal._timeline
        if rec["node"] == victim
    )
    kill_at = mids[len(mids) // 2]
    return NodeFaultPlan.kill_one(victim, kill_at), victim, kill_at


def _scaling_grid(spec, matrices):
    """Seeded chaos runs over nodes × rate × crash fraction."""
    scaling = []
    grid_spec = dataclasses.replace(spec, n_requests=120)
    for nn in (2, 3, 4):
        for rate in (400.0, 800.0):
            for crash_frac in (0.0, 0.4):
                cell_spec = dataclasses.replace(grid_spec, rate=rate)
                cell_reqs = generate_requests(cell_spec, matrices)
                cell_plan = NodeFaultPlan.seeded(
                    nn, seed=SEED + 17, horizon=0.15,
                    crash_frac=crash_frac, crash_duration=(0.03, 0.08),
                )
                cell = _service(matrices, n_nodes=nn, plan=cell_plan).run(cell_reqs)
                cs = summarize(cell)
                ccons = check_conservation(cell_reqs, cell)
                scaling.append(
                    {
                        "nodes": nn,
                        "rate": rate,
                        "crash_frac": crash_frac,
                        "served_fraction": cs["served_fraction"],
                        "p99_latency": cs["p99_latency"],
                        "throughput": cs["throughput"],
                        "goodput": cs["goodput"],
                        "conservation_ok": ccons.ok,
                    }
                )
    return scaling


def run(check):
    """The cluster gates in order; returns ``(record, failures)``."""
    gate = Gates()
    if check:
        spec = WorkloadSpec(
            seed=SEED,
            n_requests=64,
            rate=700.0,
            patterns=("grid2d-12", "grid2d-16", "grid2d-20"),
            deadline_lo=0.05,
            deadline_hi=0.4,
            maxiter=60,
        )
    else:
        spec = WorkloadSpec(
            seed=SEED,
            n_requests=240,
            rate=700.0,
            patterns=("grid2d-16", "grid2d-24", "convect2d-16", "circuit-400"),
            deadline_lo=0.05,
            deadline_hi=0.5,
            maxiter=80,
        )
    matrices = build_matrices(spec.patterns)
    reqs = generate_requests(spec, matrices)

    print(f"cluster bench: healthy workload ({N_NODES} nodes, k={REPLICATION})")
    registry = MetricsRegistry()
    results = _service(matrices, registry=registry).run(reqs)
    summary = summarize(results)
    cons = check_conservation(reqs, results)
    gate(len(results) == spec.n_requests, "every request terminated")
    gate(all(r.outcome in OUTCOMES for r in results), "all outcomes structured")
    gate(cons.ok, "request conservation holds")

    print("cluster bench: deterministic replay")
    replay = _service(matrices).run(reqs)
    replay_ok = (
        outcome_signature(results) == outcome_signature(replay)
        and solutions_identical(results, replay)
    )
    gate(replay_ok, "same seed + same plan replays bit-identically")

    print("cluster bench: placement identity (1 node vs cluster)")
    ident_spec = dataclasses.replace(spec, deadline_lo=1e9, deadline_hi=1e9)
    ident_reqs = generate_requests(ident_spec, matrices)
    one = _service(matrices, n_nodes=1, replication=1,
                   capacity=spec.n_requests).run(ident_reqs)
    many = _service(matrices, capacity=spec.n_requests).run(ident_reqs)
    ident_ok = solutions_identical(one, many) and [r.outcome for r in one] == [
        r.outcome for r in many
    ]
    gate(ident_ok, "solutions bit-identical regardless of placement")

    print("cluster bench: kill-one-node storm")
    plan, victim, kill_at = _storm_plan(matrices, reqs)
    storm_reg = MetricsRegistry()
    storm_svc = _service(matrices, plan=plan, registry=storm_reg)
    storm = storm_svc.run(reqs)
    storm_summary = summarize(storm)
    storm_cons = check_conservation(reqs, storm)
    gate(
        len(storm) == spec.n_requests and all(r.outcome in OUTCOMES for r in storm),
        "storm: every request terminated with a structured outcome",
    )
    gate(storm_cons.ok, "storm: request conservation holds")
    gate(
        storm_summary["served_fraction"] >= 0.9,
        f"storm: served fraction >= 0.9 (got {storm_summary['served_fraction']:.3f})",
    )
    storm2 = _service(matrices, plan=plan).run(reqs)
    storm_replay_ok = outcome_signature(storm) == outcome_signature(storm2)
    gate(storm_replay_ok, "storm replays deterministically")
    healthy_x = {r.request_id: r.x for r in results if r.x is not None}
    gate(
        all(
            np.array_equal(r.x, healthy_x[r.request_id])
            for r in storm
            if r.x is not None and r.request_id in healthy_x
        ),
        "storm solutions bit-identical to the healthy run",
    )

    print("cluster bench: planted-bug gate (failover re-route dropped)")
    planted = _service(matrices, plan=plan, drop_failover=True, hedge_after=None)
    planted_results = planted.run(reqs)
    planted_cons = check_conservation(reqs, planted_results)
    gate(
        not planted_cons.ok and planted.n_dropped > 0,
        "conservation checker catches the dropped failover "
        f"({planted.n_dropped} requests lost, "
        f"{len(planted_cons.violations)} violations)",
    )

    trace = storm_svc.trace_events()
    gate(not validate_events(trace), "storm chrome trace validates")
    snapshot = registry.snapshot()
    gate(not validate_metrics(snapshot), "metrics snapshot validates")

    scaling = None
    if not check:
        print("cluster bench: nodes x rate x crash-fraction scaling grid")
        scaling = _scaling_grid(spec, matrices)
        gate(all(c["conservation_ok"] for c in scaling),
             "conservation holds across the scaling grid")

    record = {
        "bench": "cluster",
        "mode": "check" if check else "full",
        "n_nodes": N_NODES,
        "replication": REPLICATION,
        "spec": dataclasses.asdict(spec),
        "workload": summary,
        "storm": {
            "victim": int(victim),
            "kill_at": float(kill_at),
            "summary": storm_summary,
            "failovers": storm_svc.n_failovers,
            "hedges": storm_svc.n_hedges,
            "hedge_wins": storm_svc.n_hedge_wins,
            "rewarms": storm_svc.n_rewarms,
            "outcome_counts": storm_cons.outcome_counts,
        },
        "replay_identical": replay_ok,
        "storm_replay_identical": storm_replay_ok,
        "placement_identity": ident_ok,
        "planted_bug_caught": not planted_cons.ok,
        "planted_bug_dropped": planted.n_dropped,
        "scaling": scaling,
        "failures": gate.failures,
        "metrics": snapshot,
        "storm_metrics": storm_reg.snapshot(),
    }
    print(
        f"storm: served {storm_summary['outcomes'].get('served', 0)}"
        f"/{storm_summary['n_requests']} after killing node {victim} "
        f"at t={kill_at:.4f} ({storm_svc.n_failovers} failovers, "
        f"{storm_svc.n_rewarms} rewarms)"
    )
    return record, gate.failures


if __name__ == "__main__":
    raise SystemExit(bench_main("cluster", run, __doc__))
