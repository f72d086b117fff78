"""One cluster node: a worker shard hardened for placement freedom.

A :class:`ClusterNode` is the unit the router places work on and the
fault plan kills.  It wraps the single-machine
:class:`~repro.serve.workers.WorkerShard` with three changes:

* **no deadline demotion** (:class:`NodeShard`) — the single-machine
  shard lowers the factorization tier when a batch's deadline budget
  cannot cover the full build, which makes the factor depend on
  *queueing history*.  In a cluster that would break the core
  guarantee (any owner computes the same bits: placement, failover and
  hedging must be invisible in the results), so cluster nodes always
  build the full requested tier and let a late factor show up as a
  ``deadline_miss``, never as different numbers;
* **gray-failure pricing** — a node inside one of its plan's slow
  windows finishes the *same* computation ``factor×`` later
  (:meth:`ClusterNode.execute` rescales the virtual service time and
  re-derives each result's ``served``/``deadline_miss`` outcome from
  the stretched finish); heartbeats are unaffected, so only the
  router's hedging can save the latency;
* **crash semantics** — :meth:`on_crash` drops the factor cache (a
  machine's memory does not survive a reboot) and the busy state
  (in-flight loss itself is adjudicated by the service, which knows
  the dispatch interval); :meth:`adopt` is the re-warm path, installing
  a replica's :class:`~repro.serve.factor_cache.FactorEntry` for a
  copy charge instead of a cold refactorization.

Adopted entries share the underlying factor object with the donor — a
replica is the *same* preconditioner, so a resilience-chain advance
(mid-solve demotion on a poisoned factor) is learned once, cluster
wide, exactly as it would be in the single cache of a one-node world.
"""

from __future__ import annotations

import dataclasses
import math

from ..serve.factor_cache import FactorEntry
from ..serve.workers import WorkerShard

__all__ = ["NodeShard", "ClusterNode"]


class NodeShard(WorkerShard):
    """A worker shard that never demotes the factorization tier.

    Overriding the budget pin makes every factor a pure function of
    its matrix — the property the cluster's placement-identity gate
    (same bits on 1 node or N, through any fault schedule) rests on.
    """

    def _build_entry(self, A, fingerprint, budget):
        return super()._build_entry(A, fingerprint, math.inf)


class ClusterNode:
    """One node of the serving cluster, on the shared virtual clock."""

    def __init__(
        self,
        node_id,
        *,
        plan=None,
        cache_entries=8,
        cost=None,
        options=None,
        retry_policy=None,
    ):
        self.node_id = int(node_id)
        self.plan = plan
        self.shard = NodeShard(
            self.node_id,
            cache_entries=cache_entries,
            cost=cost,
            options=options,
            retry_policy=retry_policy,
            fault_plan=plan.shard_plan if plan is not None else None,
        )
        self.cache = self.shard.cache
        self.cache.name = f"node{self.node_id}"
        self.free_at = 0.0
        self.busy = False
        self.n_batches = 0
        self.n_crashes = 0
        self.n_rewarms = 0

    # ------------------------------------------------------------------
    def execute(self, batch, A, fingerprint, now):
        """Run one batch; returns ``(results, finish)`` gray-adjusted.

        The numeric work is the wrapped shard's, bit-for-bit.  Only
        the virtual service time is rescaled by the plan's gray-failure
        rate at dispatch, after which each result's finish time — and
        hence its ``served`` vs ``deadline_miss`` outcome, the two
        states that differ only in lateness — is re-derived.
        """
        results, finish = self.shard.execute(batch, A, fingerprint, now)
        rate = self.plan.rate(self.node_id, now) if self.plan is not None else 1.0
        if rate != 1.0:
            finish = now + (finish - now) * rate
            for res, req in zip(results, batch.requests):
                res.finish_time = finish
                if res.outcome in ("served", "deadline_miss"):
                    res.outcome = "served" if finish <= req.deadline else "deadline_miss"
                    if res.outcome == "deadline_miss":
                        res.detail = f"gray node {self.node_id} ({rate:g}x slow)"
        for res in results:
            res.shard = self.node_id
        self.n_batches += 1
        return results, finish

    # ------------------------------------------------------------------
    def holds(self, fingerprint) -> bool:
        return fingerprint in self.shard.cache

    def entry(self, fingerprint):
        """The cached entry without touching hit/miss accounting."""
        return self.shard.cache._entries.get(fingerprint)

    def adopt(self, entry: FactorEntry):
        """Install a replica of ``entry`` (re-warm, not refactorize).

        The wrapper is fresh (per-node LRU recency and stats stay
        local) but the factor and its applies are shared with the
        donor — copying a preconditioner does not change it.
        """
        self.shard.cache.put(
            dataclasses.replace(entry, sync_points=dict(entry.sync_points))
        )
        self.n_rewarms += 1

    def on_crash(self):
        """A reboot: volatile state — cache, busy clock — is gone."""
        self.shard.cache.clear()
        self.busy = False
        self.n_crashes += 1
