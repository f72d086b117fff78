"""Golden schedules: the serving event loop's decisions, pinned by digest.

Each case replays one ``repro serve bench --check`` or ``repro cluster
bench --check`` run and hashes every request's scheduling record —
``(request_id, outcome, shard, batch_size, iterations, start_time,
finish_time)`` with floats written via :meth:`float.hex` — into one
blake2b digest.  Cluster cases also hash the service's
``protocol_trace``, ``_timeline`` and fault counters.  Any change to
when, where or how a request is batched, dispatched, failed over or
rejected moves a digest; solution bits are covered by the replay and
identity gates instead.
"""

import dataclasses
import hashlib
from collections import Counter

import pytest

from repro.cluster import ClusterService, NodeFaultPlan
from repro.resilience import FaultPlan
from repro.serve import BatchPolicy, CostModel, SolveService
from repro.serve.workload import WorkloadSpec, build_matrices, generate_requests


def _canon(obj):
    """Deterministic text for nested records; floats exact via hex."""
    if isinstance(obj, bool) or obj is None:
        return repr(obj)
    if isinstance(obj, float):
        return obj.hex()
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, str):
        return repr(obj)
    if isinstance(obj, dict):
        return "{" + ",".join(f"{_canon(k)}:{_canon(v)}" for k, v in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_canon(v) for v in obj) + "]"
    raise TypeError(f"no canonical form for {type(obj).__name__}")


def _digest(*parts):
    h = hashlib.blake2b(digest_size=16)
    for part in parts:
        h.update(_canon(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _schedule(results):
    return [
        (
            r.request_id,
            r.outcome,
            r.shard,
            r.batch_size,
            r.iterations,
            float(r.start_time),
            float(r.finish_time),
        )
        for r in results
    ]


# ----------------------------------------------------------------------
# serve: the `repro serve bench --check` workload
# ----------------------------------------------------------------------
def _serve_spec(scheduler=None):
    return WorkloadSpec(
        seed=0,
        n_requests=48,
        rate=600.0,
        patterns=("grid2d-12", "grid2d-16"),
        deadline_lo=0.02,
        deadline_hi=0.2,
        maxiter=60,
        scheduler=scheduler,
        burst_at=0.02,
        burst_duration=0.03,
    )


def _serve_run(spec, fault_plan=None):
    matrices = build_matrices(spec.patterns)
    svc = SolveService(
        matrices,
        n_shards=2,
        capacity=64,
        batch_policy=BatchPolicy(max_batch=16, max_wait=0.01),
        cost=CostModel(),
        fault_plan=fault_plan,
    )
    return _digest(_schedule(svc.run(generate_requests(spec, matrices))))


def _serve_faulted():
    spec = _serve_spec()
    plan = FaultPlan.seeded(
        2,
        n_rows=spec.n_requests,
        seed=1,
        n_stragglers=1,
        slowdown=4.0,
        spin_fault_frac=0.1,
        dropped=((0, 3), (1, 7)),
        watchdog_timeout=0.02,
    )
    return _serve_run(dataclasses.replace(spec, deadline_lo=0.01, deadline_hi=0.1), plan)


# ----------------------------------------------------------------------
# cluster: the `repro cluster bench --check` workload
# ----------------------------------------------------------------------
_CLUSTER_SPEC = WorkloadSpec(
    seed=0,
    n_requests=64,
    rate=700.0,
    patterns=("grid2d-12", "grid2d-16", "grid2d-20"),
    deadline_lo=0.05,
    deadline_hi=0.4,
    maxiter=60,
)


def _cluster(matrices, plan=None, **kw):
    return ClusterService(
        matrices,
        n_nodes=3,
        replication=2,
        capacity=128,
        batch_policy=BatchPolicy(max_batch=16, max_wait=0.01),
        node_fault_plan=plan,
        **kw,
    )


def _cluster_digest(svc, results):
    counters = [
        svc.n_failovers,
        svc.n_hedges,
        svc.n_hedge_wins,
        svc.n_duplicates,
        svc.n_rewarms,
        svc.n_dropped,
        svc.n_double_terminations,
    ]
    return _digest(_schedule(results), svc.protocol_trace, svc._timeline, counters)


def _storm_plan(matrices, reqs):
    """Kill the busiest node mid-flight, as the cluster bench does."""
    rehearsal = _cluster(matrices)
    rehearsal.run(reqs)
    victim = Counter(rec["node"] for rec in rehearsal._timeline).most_common(1)[0][0]
    mids = sorted(
        0.5 * (rec["start"] + rec["finish"])
        for rec in rehearsal._timeline
        if rec["node"] == victim
    )
    return NodeFaultPlan.kill_one(victim, mids[len(mids) // 2])


def _cluster_case(name):
    matrices = build_matrices(_CLUSTER_SPEC.patterns)
    reqs = generate_requests(_CLUSTER_SPEC, matrices)
    if name == "healthy":
        svc = _cluster(matrices)
    elif name == "storm":
        svc = _cluster(matrices, _storm_plan(matrices, reqs))
    elif name == "drop_failover":
        svc = _cluster(
            matrices, _storm_plan(matrices, reqs), drop_failover=True, hedge_after=None
        )
    elif name == "dual_dispatch":
        plan = NodeFaultPlan(
            seed=1,
            crashes=((1, 0.01, 0.08), (2, 0.05, 0.12)),
            slow=((1, 0.0, 0.01, 8.0),),
        )
        svc = _cluster(matrices, plan, dual_dispatch=True, hedge_after=0.005)
    else:  # seeded chaos: crashes, gray windows and a delayed join
        plan = NodeFaultPlan.seeded(
            3,
            seed=17,
            horizon=0.1,
            crash_frac=0.6,
            crash_duration=(0.02, 0.05),
            slow_frac=0.5,
            slow_duration=(0.02, 0.06),
            n_delayed_joins=1,
            join_by=0.03,
        )
        svc = _cluster(matrices, plan)
    results = svc.run(reqs)
    return svc, _cluster_digest(svc, results)


GOLDEN = {
    "serve_healthy": "50caa938b84bd14c21ff80f05958e881",
    "serve_faulted": "dbfdc02ccab41713d15c10d0cdc23272",
    "serve_superstep": "7081379ff5bc3686dc559262c4131cd2",
    "cluster_healthy": "5368fab1244d74acce4fd173d437a85b",
    "cluster_storm": "a39e311457663442afceaad163979043",
    "cluster_drop_failover": "4942a0da0927d67d306f0ca325641847",
    "cluster_dual_dispatch": "764a2ff97a5ace4188e5df0f4f7849fa",
    "cluster_seeded_chaos": "c01cc228b04022e0ef079a3fe0ce7cf8",
}


def test_serve_healthy_schedule():
    assert _serve_run(_serve_spec()) == GOLDEN["serve_healthy"]


def test_serve_faulted_schedule():
    assert _serve_faulted() == GOLDEN["serve_faulted"]


def test_serve_superstep_schedule():
    assert _serve_run(_serve_spec("superstep")) == GOLDEN["serve_superstep"]


@pytest.mark.parametrize(
    "name", ["healthy", "storm", "drop_failover", "dual_dispatch", "seeded_chaos"]
)
def test_cluster_schedule(name):
    svc, digest = _cluster_case(name)
    if name == "storm":
        assert svc.n_failovers > 0
    elif name == "drop_failover":
        assert svc.n_dropped > 0
    elif name == "dual_dispatch":
        assert svc.n_double_terminations > 0
    assert digest == GOLDEN[f"cluster_{name}"]
