"""``repro cluster`` — benchmark and gate the fault-tolerant cluster.

::

    python -m repro cluster bench                 # full run, writes BENCH_cluster.json
    python -m repro cluster bench --check         # fast CI gate
    python -m repro cluster bench --nodes 4 --replication 2

The bench drives :class:`~repro.cluster.ClusterService` through the
failure modes the subsystem exists for and records the evidence in one
JSON file:

* **workload** — a seeded open-loop run on a healthy cluster: request
  conservation (:func:`repro.verify.check_conservation`), served
  fraction, p50/p99 latency;
* **replay** — same workload + same :class:`~repro.cluster.NodeFaultPlan`
  twice ⇒ identical outcome sequences and bit-identical solutions;
* **placement identity** — the workload on 1 node versus ``--nodes``
  must give bit-identical solutions per request (consistent-hash
  placement, replication and batching decide *where*, never *what*);
* **kill-one-node storm** — a rehearsal run finds the busiest node and
  an instant it is mid-batch; the storm kills it there, permanently,
  at steady load.  Gates: every request still terminates (failover +
  re-warm from replicas), conservation holds, and served fraction
  stays ≥ 0.9 with ``replication`` ≥ 2;
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

from __future__ import annotations

import argparse
import dataclasses
import json
from collections import Counter

import numpy as np

from ..obs.chrome_trace import validate_events
from ..obs.metrics import MetricsRegistry, validate_metrics
from ..serve.batcher import BatchPolicy
from ..serve.cli import _outcome_sig, _solutions_identical
from ..serve.request import OUTCOMES
from ..serve.workload import WorkloadSpec, build_matrices, generate_requests, summarize
from .faults import NodeFaultPlan
from .service import ClusterService

__all__ = ["main", "build_parser", "run_bench"]


def _service(matrices, *, n_nodes, replication, plan=None, registry=None,
             capacity=128, drop_failover=False, hedge_after=0.02):
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


def _storm_plan(matrices, reqs, *, n_nodes, replication):
    """Derive the kill-one-node storm from a faultless rehearsal.

    Deterministic chaos targeting: the victim is the node that served
    the most batches, and the kill instant is the midpoint of its
    median flight — guaranteed to catch in-flight work, so the storm
    always exercises loss + failover rather than landing in an idle
    gap.  Everything downstream of the rehearsal is a pure function of
    it, so the storm replays exactly.
    """
    rehearsal = _service(matrices, n_nodes=n_nodes, replication=replication)
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


def run_bench(*, check=False, seed=0, out_path="BENCH_cluster.json",
              n_nodes=3, replication=2):
    """Run the cluster benchmark; returns (record, n_failures)."""
    from ..verify import check_conservation

    failures = []

    def gate(ok, name):
        print(f"  [{'ok' if ok else 'FAIL'}] {name}")
        if not ok:
            failures.append(name)

    if check:
        spec = WorkloadSpec(
            seed=seed,
            n_requests=64,
            rate=700.0,
            patterns=("grid2d-12", "grid2d-16", "grid2d-20"),
            deadline_lo=0.05,
            deadline_hi=0.4,
            maxiter=60,
        )
    else:
        spec = WorkloadSpec(
            seed=seed,
            n_requests=240,
            rate=700.0,
            patterns=("grid2d-16", "grid2d-24", "convect2d-16", "circuit-400"),
            deadline_lo=0.05,
            deadline_hi=0.5,
            maxiter=80,
        )
    matrices = build_matrices(spec.patterns)
    reqs = generate_requests(spec, matrices)

    print(f"cluster bench: healthy workload ({n_nodes} nodes, k={replication})")
    registry = MetricsRegistry()
    svc = _service(matrices, n_nodes=n_nodes, replication=replication, registry=registry)
    results = svc.run(reqs)
    summary = summarize(results)
    cons = check_conservation(reqs, results)
    gate(len(results) == spec.n_requests, "every request terminated")
    gate(all(r.outcome in OUTCOMES for r in results), "all outcomes structured")
    gate(cons.ok, "request conservation holds")

    print("cluster bench: deterministic replay")
    replay = _service(matrices, n_nodes=n_nodes, replication=replication).run(reqs)
    replay_ok = _outcome_sig(results) == _outcome_sig(replay) and _solutions_identical(
        results, replay
    )
    gate(replay_ok, "same seed + same plan replays bit-identically")

    print("cluster bench: placement identity (1 node vs cluster)")
    ident_spec = dataclasses.replace(spec, deadline_lo=1e9, deadline_hi=1e9)
    ident_reqs = generate_requests(ident_spec, matrices)
    one = _service(matrices, n_nodes=1, replication=1,
                   capacity=spec.n_requests).run(ident_reqs)
    many = _service(matrices, n_nodes=n_nodes, replication=replication,
                    capacity=spec.n_requests).run(ident_reqs)
    ident_ok = _solutions_identical(one, many) and [r.outcome for r in one] == [
        r.outcome for r in many
    ]
    gate(ident_ok, "solutions bit-identical regardless of placement")

    print("cluster bench: kill-one-node storm")
    plan, victim, kill_at = _storm_plan(
        matrices, reqs, n_nodes=n_nodes, replication=replication
    )
    storm_reg = MetricsRegistry()
    storm_svc = _service(
        matrices, n_nodes=n_nodes, replication=replication, plan=plan,
        registry=storm_reg,
    )
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
    storm2 = _service(
        matrices, n_nodes=n_nodes, replication=replication, plan=plan
    ).run(reqs)
    storm_replay_ok = _outcome_sig(storm) == _outcome_sig(storm2)
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
    planted = _service(
        matrices, n_nodes=n_nodes, replication=replication, plan=plan,
        drop_failover=True, hedge_after=None,
    )
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
        scaling = []
        grid_spec = dataclasses.replace(spec, n_requests=120)
        for nn in (2, 3, 4):
            for rate in (400.0, 800.0):
                for crash_frac in (0.0, 0.4):
                    cell_spec = dataclasses.replace(grid_spec, rate=rate)
                    cell_reqs = generate_requests(cell_spec, matrices)
                    cell_plan = NodeFaultPlan.seeded(
                        nn, seed=seed + 17, horizon=0.15,
                        crash_frac=crash_frac, crash_duration=(0.03, 0.08),
                    )
                    cell = _service(
                        matrices, n_nodes=nn, replication=replication,
                        plan=cell_plan,
                    ).run(cell_reqs)
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
        gate(all(c["conservation_ok"] for c in scaling),
             "conservation holds across the scaling grid")

    record = {
        "bench": "cluster",
        "mode": "check" if check else "full",
        "n_nodes": n_nodes,
        "replication": replication,
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
        "failures": failures,
        "metrics": snapshot,
        "storm_metrics": storm_reg.snapshot(),
    }
    if out_path:
        with open(out_path, "w") as fh:
            json.dump(record, fh, indent=2)
        print(f"wrote {out_path}")
    print(
        f"storm: served {storm_summary['outcomes'].get('served', 0)}"
        f"/{storm_summary['n_requests']} after killing node {victim} "
        f"at t={kill_at:.4f} ({storm_svc.n_failovers} failovers, "
        f"{storm_svc.n_rewarms} rewarms)"
    )
    return record, len(failures)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro cluster", description=__doc__)
    sub = p.add_subparsers(dest="cmd", required=True)
    b = sub.add_parser("bench", help="run the cluster benchmark / CI gate")
    b.add_argument("--check", action="store_true", help="fast CI gate")
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", default="BENCH_cluster.json", help="output JSON path")
    b.add_argument("--nodes", type=int, default=3, help="cluster size")
    b.add_argument("--replication", type=int, default=2,
                   help="replica count for zipf-head (hot) fingerprints")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    _, n_failures = run_bench(
        check=args.check, seed=args.seed, out_path=args.out,
        n_nodes=args.nodes, replication=args.replication,
    )
    if n_failures:
        print(f"cluster bench: {n_failures} gate(s) FAILED")
        return 1
    print("cluster bench: all gates passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
