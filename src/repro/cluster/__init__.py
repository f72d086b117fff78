"""Fault-tolerant multi-node serving: placement, replication, failover.

The sixth layer of the stack.  Where :mod:`repro.serve` turns the
factorization/solve core into *one machine's* batched service,
``repro.cluster`` turns that machine into a fleet that survives the
failures fleets actually have:

* :mod:`repro.cluster.ring` — seeded consistent-hash placement of
  pattern fingerprints with virtual nodes, plus k-way replication of
  the zipf-head hot set (:class:`HashRing`, :class:`Router`);
* :mod:`repro.cluster.faults` — :class:`NodeFaultPlan`, the seeded
  node-level chaos vocabulary (crashes, gray slow-downs, delayed
  joins) layered over the thread-level
  :class:`~repro.resilience.FaultPlan`;
* :mod:`repro.cluster.node` — :class:`ClusterNode`, the worker-shard
  wrapper that never demotes a factor tier (placement must be
  invisible in the bits) and re-warms from replicas after a crash;
* :mod:`repro.cluster.service` — :class:`ClusterService`, the serving
  event loop with the cluster's answers plugged in: heartbeat
  suspicion, hedged requests with shared exponential backoff, failover
  re-dispatch, cache-aware re-warming.

Everything runs on the same virtual clock as the serving layer: a
cluster run is a pure function of (workload, plan, seeds), replays
bit-for-bit, and computes solutions bit-identical to a single node's —
the properties ``benchmarks/bench_cluster.py --check`` gates in CI, with
:func:`repro.verify.check_conservation` auditing that no fault
schedule can make a request disappear.  See ``docs/cluster.md``.
"""

from .faults import NodeFaultPlan
from .node import ClusterNode, NodeShard
from .ring import HashRing, Router
from .service import ClusterService

__all__ = [
    "NodeFaultPlan",
    "ClusterNode",
    "NodeShard",
    "HashRing",
    "Router",
    "ClusterService",
]
