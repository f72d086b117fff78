"""The fault-tolerant cluster event loop: route, hedge, fail over, re-warm.

:class:`ClusterService` is the multi-node generalization of
:class:`~repro.serve.workers.SolveService`: the same deterministic
discrete-event core (virtual clock, real numerics), but work is placed
by a consistent-hash :class:`~repro.cluster.ring.Router` across
:class:`~repro.cluster.node.ClusterNode`\\ s that a
:class:`~repro.cluster.faults.NodeFaultPlan` crashes, slows and
delays.  The failure protocol, end to end:

* **heartbeat suspicion** — every node heartbeats on the shared
  virtual clock every :data:`HEARTBEAT_INTERVAL`; a node whose last
  heartbeat is older than :data:`SUSPICION_TIMEOUT` is *believed down* and
  excluded from routing.  A crashed node is thus mis-trusted for up to
  one suspicion window — dispatches to it fail fast (the connect is
  refused) and fall through to the next ring owner — while a gray
  (slow) node heartbeats on time forever and is *never* suspected;
* **request hedging** — a batch still in flight ``hedge_after`` after
  dispatch gets a duplicate on the next idle ring candidate; the first
  completion wins and the loser is discarded.  Safe because every node
  computes bit-identical results (full-tier factors, no deadline
  demotion — :class:`~repro.cluster.node.NodeShard`), hedging is the
  only mechanism that rescues gray nodes;
* **failover with backoff** — a batch lost to a mid-flight crash is
  re-dispatched to a surviving owner after a seeded
  :class:`~repro.resilience.ExponentialBackoff` delay (shared with
  :class:`~repro.resilience.ResilientFactor` — one retry vocabulary
  for the whole stack); requests whose deadline passed while the
  batch was down terminate as ``deadline_miss``, never vanish.
  ``drop_failover=True`` disables the re-route — the *planted bug*
  the CI gate uses to prove the request-conservation checker
  (:func:`repro.verify.check_conservation`) has teeth;
  ``dual_dispatch=True`` plants the complementary bug: the duplicate-
  completion guard is skipped, so a hedge loser terminates its batch a
  second time.  That one is *invisible* to the dynamic conservation
  audit (the rewrite is bit-identical) and exists for the protocol
  model checker (:mod:`repro.verify.protocol`) to catch statically;
* **cache-aware re-warming** — when a fingerprint is promoted to the
  zipf-head hot set (:data:`HOT_PROMOTE` requests), its factor is
  copied to all ``replication`` ring owners; when a node joins late or
  recovers from a crash it re-adopts the hot entries it now owns from
  any live holder, paying :data:`REWARM_COST` per copy instead of a
  cold refactorization.

The event loop itself is :meth:`SolveService.run
<repro.serve.workers.SolveService.run>`; this class only answers the
questions a cluster answers differently — who owns a key (the ring
walk over believed-up nodes), when a node is idle (up and not busy),
what starting a batch means (one in-flight :class:`_Flight`, extras to
the failover backlog) and which extra events exist (plan crashes,
recoveries and joins; flight completion or loss; hedge, redispatch and
unbusy timers).

Everything is a pure function of (workload, plan, seeds): the same
inputs replay bit-for-bit, and — the acceptance gate — the solutions
are bit-identical to a single-node run regardless of placement,
hedging or failures, because placement only ever decides *where* and
*when*, never *what*.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..obs import spans as _spans
from ..resilience import RetryPolicy
from ..serve.batcher import Batch, BatchPolicy
from ..serve.request import RequestResult
from ..serve.workers import CostModel, SolveService
from .faults import NodeFaultPlan
from .node import ClusterNode
from .ring import Router

__all__ = ["ClusterService"]

#: heartbeat grid spacing on the virtual clock
HEARTBEAT_INTERVAL = 0.005
#: a node with no heartbeat this recent is believed down
SUSPICION_TIMEOUT = 0.02
#: base delay of the seeded exponential backoff before a failover
FAILOVER_BACKOFF = 1e-3
#: requests after which a fingerprint joins the replicated hot set
HOT_PROMOTE = 3
#: virtual charge for copying one factor replica onto a node
REWARM_COST = 5e-4
#: virtual points per node on the consistent-hash ring
VNODES = 64

assert 0.0 < HEARTBEAT_INTERVAL <= SUSPICION_TIMEOUT, (
    "the suspicion window must cover at least one heartbeat interval"
)


@dataclass(eq=False)
class _Flight:
    """One copy of one batch in flight on one node."""

    seq: int
    bid: int
    batch: Batch
    node: int
    start: float
    finish: float  # natural completion time of the virtual service
    lost_at: float | None  # crash interrupts the flight here, if at all
    results: list
    is_hedge: bool = False

    @property
    def lost(self) -> bool:
        return self.lost_at is not None

    @property
    def event_time(self) -> float:
        return self.lost_at if self.lost else self.finish


class ClusterService(SolveService):
    """Deterministic multi-node solve service with chaos-driven failover."""

    metric_prefix = "cluster"
    stranded_detail = "cluster down: no live node and no scheduled recovery"

    def __init__(
        self,
        matrices,
        *,
        n_nodes=3,
        replication=2,
        ring_seed=0,
        capacity=128,
        admission="reject",
        batch_policy: BatchPolicy | None = None,
        cost: CostModel | None = None,
        options=None,
        retry_policy: RetryPolicy | None = None,
        node_fault_plan: NodeFaultPlan | None = None,
        factor_cache_entries=8,
        hedge_after=0.02,
        max_hedges=1,
        registry=None,
        drop_failover=False,
        dual_dispatch=False,
    ):
        self.plan = node_fault_plan if node_fault_plan is not None else NodeFaultPlan()
        super().__init__(
            matrices,
            n_shards=n_nodes,
            capacity=capacity,
            admission=admission,
            batch_policy=batch_policy,
            cost=cost,
            options=options,
            retry_policy=retry_policy,
            factor_cache_entries=factor_cache_entries,
            registry=registry,
        )
        self.nodes = self.shards
        self.router = Router(
            range(len(self.nodes)),
            replication=replication,
            vnodes=VNODES,
            seed=ring_seed,
            hot_promote=HOT_PROMOTE,
        )
        self.hedge_after = None if hedge_after is None else float(hedge_after)
        self.max_hedges = int(max_hedges)
        self.drop_failover = bool(drop_failover)
        self.dual_dispatch = bool(dual_dispatch)
        self._backoff = (retry_policy or RetryPolicy()).backoff(
            base=FAILOVER_BACKOFF, jitter_seed=self.plan.seed
        )
        self.n_failovers = 0
        self.n_hedges = 0
        self.n_hedge_wins = 0
        self.n_duplicates = 0
        self.n_rewarms = 0
        self.n_dropped = 0  # requests silently lost (drop_failover only)
        self.n_double_terminations = 0  # duplicate wins (dual_dispatch only)
        self._timeline: list = []  # committed/lost batch executions, for tracing
        self._events_log: list = []  # (t, kind, node, detail) fault/protocol instants
        self._ready: list = []  # (bid, batch) awaiting a routable idle node
        # protocol-level event word, replayable through the abstract model
        # by repro.verify.protocol.check_cluster_trace (abstraction check)
        self.protocol_trace: list = []

    def _make_shard(self, node_id, *, fault_plan=None, **kw):
        # node faults, thread-level shard faults included, come from self.plan
        return ClusterNode(node_id, plan=self.plan, cost=self.cost, **kw)

    # ------------------------------------------------------------------
    # failure detection and routing
    # ------------------------------------------------------------------
    def _believed_up(self, node, now) -> bool:
        """The heartbeat view: any heartbeat inside the suspicion window?

        Heartbeats land on the :data:`HEARTBEAT_INTERVAL` grid whenever
        the node is actually up, so this is a bounded backward scan over
        at most ``SUSPICION_TIMEOUT / HEARTBEAT_INTERVAL`` grid points.
        Gray nodes pass (they heartbeat on time); crashed nodes fail
        once their last heartbeat ages out of the window.
        """
        hb = HEARTBEAT_INTERVAL
        g = math.floor(now / hb + 1e-12) * hb
        if g > now:
            g -= hb
        lo = now - SUSPICION_TIMEOUT
        while g >= lo and g >= 0.0:
            if self.plan.is_up(node, g):
                return True
            g -= hb
        return False

    def _walk(self, fingerprint, now, accept, tried=()):
        """First *believed-up* node on the ring walk that ``accept`` admits."""
        tried = set(tried)
        while True:
            nid = self.router.pick(
                fingerprint, lambda n: self._believed_up(n, now), exclude=tried
            )
            if nid is None or accept(nid):
                return nid
            tried.add(nid)

    def _owner(self, matrix_key, now):
        """The node this matrix dispatches to right now, or None.

        First *believed-up* candidate on the ring walk; a candidate
        that is believed up but actually down (crashed inside the
        suspicion window) refuses the connect and the walk continues —
        the fast-failover path that makes fresh crashes cost a
        re-route, not a suspicion timeout.
        """
        nid = self._walk(
            self.fingerprints[matrix_key], now, lambda n: self.plan.is_up(n, now)
        )
        return None if nid is None else self.nodes[nid]

    def _is_idle(self, node, now) -> bool:
        return node is not None and not node.busy and self.plan.is_up(node.node_id, now)

    # ------------------------------------------------------------------
    # replication / re-warming
    # ------------------------------------------------------------------
    def _admitted(self, req, now):
        """Hotness accounting; a fresh promotion replicates the factor."""
        fp = self.fingerprints[req.matrix_key]
        if self.router.observe(fp):
            self._maybe_replicate(fp, now)

    def _donor(self, fp, now, skip=None):
        """First live node (other than ``skip``) holding ``fp``'s factor."""
        for n in self.nodes:
            if n.node_id != skip and n.holds(fp) and self.plan.is_up(n.node_id, now):
                return n
        return None

    def _maybe_replicate(self, fp, now):
        """Copy a hot fingerprint's factor to every live ring owner."""
        if not self.router.is_hot(fp):
            return
        donor = self._donor(fp, now)
        if donor is None:
            return
        entry = donor.entry(fp)
        for nid in self.router.replicas(fp):
            tgt = self.nodes[nid]
            if tgt.holds(fp) or tgt.busy or not self.plan.is_up(nid, now):
                continue
            tgt.adopt(entry)
            self.n_rewarms += 1
            tgt.busy = True  # the copy briefly occupies the adopter
            tgt.free_at = now + REWARM_COST
            self._timers.append((tgt.free_at, self._tick(), "unbusy", nid))
            self._events_log.append((now, "rewarm", nid, fp[:12]))
            _spans.instant("cluster.rewarm", cat="cluster", node=nid, key=fp[:12])

    def _rewarm_node(self, nid, now):
        """A joining/recovering node re-adopts the hot entries it owns."""
        node = self.nodes[nid]
        adopted = 0
        for fp in self.router.hot():
            if nid not in self.router.replicas(fp) or node.holds(fp):
                continue
            donor = self._donor(fp, now, skip=nid)
            if donor is None:
                continue
            node.adopt(donor.entry(fp))
            self.n_rewarms += 1
            adopted += 1
            self._events_log.append((now, "rewarm", nid, fp[:12]))
            _spans.instant("cluster.rewarm", cat="cluster", node=nid, key=fp[:12])
        if adopted and not node.busy:
            node.busy = True
            node.free_at = now + adopted * REWARM_COST
            self._timers.append((node.free_at, self._tick(), "unbusy", nid))

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _tick(self):
        self._seq += 1
        return self._seq

    def _new_batch(self, batch):
        bid = self._tick()
        self._bstate[bid] = {
            "batch": batch, "done": False, "nodes": [], "failovers": 0, "hedges": 0,
        }
        return bid

    def _dispatch(self, batch, nid, now, *, bid=None, is_hedge=False):
        node = self.nodes[nid]
        fp = self.fingerprints[batch.matrix_key]
        if bid is None:
            bid = self._new_batch(batch)
        st = self._bstate[bid]
        st["batch"] = batch
        st["nodes"].append(nid)
        self.protocol_trace.append(("dispatch", now, bid, nid, bool(is_hedge)))
        A = self.matrices[batch.matrix_key]
        results, finish = node.execute(batch, A, fp, now)
        lost_at = self.plan.down_during(nid, now, finish)
        fl = _Flight(self._tick(), bid, batch, nid, now, finish, lost_at, results, is_hedge)
        self._inflight.append(fl)
        node.busy = True
        node.free_at = fl.event_time
        if self.hedge_after is not None and st["hedges"] < self.max_hedges:
            self._timers.append((now + self.hedge_after, self._tick(), "hedge", bid))
        self._timeline.append(
            {
                "node": nid,
                "start": now,
                "finish": fl.event_time,
                "size": batch.size,
                "solver": batch.solver,
                "hedge": is_hedge,
                "lost": fl.lost,
            }
        )
        self._maybe_replicate(fp, now)
        return fl

    def _start(self, node, batches, now, queue, results):
        """One batch flies now; the rest wait in the failover backlog."""
        self._dispatch(batches[0], node.node_id, now)
        for extra in batches[1:]:
            self._ready.append((self._new_batch(extra), extra))

    # ------------------------------------------------------------------
    # the cluster's events, stepped by SolveService.run
    # ------------------------------------------------------------------
    def _begin_run(self):
        self._seq = 0
        self._ready = []
        self.protocol_trace = []
        self._inflight: list[_Flight] = []
        self._timers: list = []  # (t, seq, kind, payload)
        self._bstate: dict = {}
        self._plan_events = self.plan.events()
        self._ei = 0
        super()._begin_run()

    def _pending(self) -> bool:
        return bool(self._inflight or self._timers or self._ready)

    def _event_times(self, now):
        cands = [fl.event_time for fl in self._inflight]
        cands.extend(t for t, _, _, _ in self._timers)
        if self._ei < len(self._plan_events):
            cands.append(self._plan_events[self._ei][0])
        if any(self._is_idle(self._owner(b.matrix_key, now), now) for _, b in self._ready):
            cands.append(now)
        return cands

    def _advance(self, now, results):
        self._apply_plan_events(now)
        self._resolve_flights(now, results)
        self._fire_timers(now)

    def _apply_plan_events(self, now):
        """The world changes: crashes, recoveries, joins."""
        events = self._plan_events
        while self._ei < len(events) and events[self._ei][0] <= now:
            t_ev, kind, nid = events[self._ei]
            self._ei += 1
            self._events_log.append((t_ev, kind, nid, ""))
            if kind in ("crash", "recover", "join"):
                self.protocol_trace.append((kind, t_ev, nid))
            _spans.instant(f"cluster.{kind}", cat="cluster", node=nid)
            if kind == "crash":
                self.nodes[nid].on_crash()
                self.nodes[nid].free_at = t_ev
            elif kind in ("recover", "join"):
                self._rewarm_node(nid, t_ev)

    def _resolve_flights(self, now, results):
        """Flights resolve: completion, loss, duplicate."""
        inflight = self._inflight
        due = sorted(
            (fl for fl in inflight if fl.event_time <= now),
            key=lambda f: (f.event_time, f.seq),
        )
        for fl in due:
            inflight.remove(fl)
            st = self._bstate[fl.bid]
            if fl.lost:
                # the node died under the batch; its work is gone
                self.protocol_trace.append(("lose", now, fl.bid, fl.node))
                if st["done"] or any(f.bid == fl.bid for f in inflight):
                    continue  # another copy already won / is still running
                if self.drop_failover:
                    # PLANTED BUG (CI gate): the re-route is dropped, the
                    # batch's requests never terminate
                    self.n_dropped += len(fl.batch.requests)
                    continue
                st["failovers"] += 1
                self.n_failovers += 1
                delay = self._backoff.delay(st["failovers"] - 1)
                self._timers.append((fl.lost_at + delay, self._tick(), "redispatch", fl.bid))
                self._events_log.append(
                    (now, "failover", fl.node, f"batch of {fl.batch.size}")
                )
                _spans.instant(
                    "cluster.failover", cat="cluster", node=fl.node, size=fl.batch.size
                )
                continue
            node = self.nodes[fl.node]
            if node.free_at <= now and not any(f.node == fl.node for f in inflight):
                node.busy = False
            if st["done"]:
                if not self.dual_dispatch:
                    self.n_duplicates += 1  # a slower copy finishing after the winner
                    self.protocol_trace.append(("duplicate", now, fl.bid, fl.node))
                    continue
                # PLANTED BUG (CI gate): the duplicate-completion guard is
                # skipped — a hedge loser terminates the batch a *second*
                # time.  Invisible to check_conservation (the rewritten
                # results are bit-identical), which is exactly why the
                # protocol model checker must catch it statically.
                self.n_double_terminations += 1
            st["done"] = True
            self.protocol_trace.append(("complete", now, fl.bid, fl.node))
            if fl.is_hedge:
                self.n_hedge_wins += 1
                self._events_log.append((now, "hedge_win", fl.node, ""))
            for res in fl.results:
                results[res.request_id] = res

    def _fire_timers(self, now):
        """Timers: hedges, failover re-dispatches, rewarm holds."""
        due = sorted(t for t in self._timers if t[0] <= now)
        self._timers = [t for t in self._timers if t[0] > now]
        for _, _, kind, payload in due:
            if kind == "unbusy":
                node = self.nodes[payload]
                if node.busy and not any(f.node == payload for f in self._inflight):
                    node.busy = False
            elif kind == "hedge":
                st = self._bstate[payload]
                if (
                    st["done"]
                    or st["hedges"] >= self.max_hedges
                    or not any(f.bid == payload for f in self._inflight)
                ):
                    continue
                cand = self._walk(
                    self.fingerprints[st["batch"].matrix_key],
                    now,
                    lambda n: self.plan.is_up(n, now) and not self.nodes[n].busy,
                    tried=st["nodes"],
                )
                if cand is None:
                    continue
                st["hedges"] += 1
                self.n_hedges += 1
                self._events_log.append((now, "hedge", cand, ""))
                _spans.instant("cluster.hedge", cat="cluster", node=cand)
                self._dispatch(st["batch"], cand, now, bid=payload, is_hedge=True)
            elif kind == "redispatch":
                st = self._bstate[payload]
                if st["done"] or any(f.bid == payload for f in self._inflight):
                    continue
                self._ready.append((payload, st["batch"]))

    def _dispatch_backlog(self, now, results):
        """The failover backlog goes before fresh batches."""
        still = []
        for bid, batch in self._ready:
            st = self._bstate[bid]
            expired = [r for r in batch.requests if r.deadline <= now]
            alive = [r for r in batch.requests if r.deadline > now]
            for r in expired:
                results[r.request_id] = RequestResult.unrun(
                    r, "deadline_miss", now,
                    "lost to node crash; deadline passed before failover",
                )
            if not alive:
                st["done"] = True
                self.protocol_trace.append(("deadline", now, bid))
                continue
            if len(alive) != len(batch.requests):
                batch = Batch(key=batch.key, requests=alive, formed_at=now)
            node = self._owner(batch.matrix_key, now)
            if self._is_idle(node, now):
                self._dispatch(batch, node.node_id, now, bid=bid)
            else:
                still.append((bid, batch))
        self._ready = still

    def _reject_stranded(self, queue, results, now):
        for bid, batch in self._ready:
            self.protocol_trace.append(("reject", now, bid))
            for r in batch.requests:
                results[r.request_id] = RequestResult.unrun(
                    r, "rejected", now, self.stranded_detail
                )
        self._ready = []
        super()._reject_stranded(queue, results, now)

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def _record_fleet_metrics(self, reg, finished):
        for name in ("failovers", "hedges", "hedge_wins", "duplicates", "rewarms"):
            reg.counter(f"cluster.{name}").inc(getattr(self, f"n_{name}"))
        if self.n_dropped:
            reg.counter("cluster.dropped").inc(self.n_dropped)
        if self.n_double_terminations:
            reg.counter("cluster.double_terminations").inc(self.n_double_terminations)
        reg.gauge("cluster.nodes").set(len(self.nodes))
        for node in self.nodes:
            reg.gauge(f"cluster.node{node.node_id}.batches").set(node.n_batches)
            reg.gauge(f"cluster.node{node.node_id}.crashes").set(node.n_crashes)
            reg.gauge(f"cluster.node{node.node_id}.rewarms").set(node.n_rewarms)

    def trace_events(self, *, pid=5):
        """Chrome trace-event dicts: one lane per node, faults as instants.

        Batch executions are ``"X"`` complete events on the owning
        node's lane (lost flights truncate at the crash); joins,
        crashes, recoveries, failovers, hedges and re-warms are
        thread-scoped instants.  Compatible with
        :func:`repro.obs.write_chrome_trace` /
        :func:`repro.obs.validate_events`.
        """
        us = 1e6
        out = [
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": node.node_id,
                "args": {"name": f"node {node.node_id}"},
            }
            for node in self.nodes
        ]
        for rec in self._timeline:
            out.append(
                {
                    "name": f"batch x{rec['size']} {rec['solver']}"
                    + (" (lost)" if rec["lost"] else ""),
                    "cat": "cluster.lost" if rec["lost"] else "cluster",
                    "ph": "X",
                    "pid": pid,
                    "tid": int(rec["node"]),
                    "ts": rec["start"] * us,
                    "dur": max(0.0, (rec["finish"] - rec["start"])) * us,
                    "args": {"hedge": rec["hedge"], "lost": rec["lost"]},
                }
            )
        for t, kind, nid, detail in self._events_log:
            out.append(
                {
                    "name": f"{kind} {detail}".strip(),
                    "cat": "cluster.fault",
                    "ph": "i",
                    "s": "t",
                    "pid": pid,
                    "tid": int(nid),
                    "ts": max(0.0, t) * us,
                    "args": {},
                }
            )
        return out
