"""Explicit-state model checker for the cluster failover/hedging protocol.

:mod:`repro.verify.conservation` audits *one* trace of
:class:`~repro.cluster.service.ClusterService`; this module checks the
protocol itself, over **all** interleavings of a small abstract
instance.  The abstraction keeps exactly the protocol-visible structure
of the service — requests move through ``queued → in-flight (with up to
``max_hedges`` duplicate copies) → lost → terminated``, nodes crash,
get suspected, recover and join on a consistent-hash walk shared with
the real :class:`~repro.cluster.ring.HashRing` — and erases everything
that only moves *time* (virtual clocks, backoff delays, heartbeats on a
grid, batching, cache re-warming).  Because the real event loop is a
deterministic schedule of exactly these transitions, every protocol
event sequence the service can produce is a path of the abstract
transition system; :func:`check_cluster_trace` replays a recorded
``ClusterService.protocol_trace`` through the abstract rules to keep
the abstraction honest (the hypothesis cross-check in
``tests/property/test_protocol_props.py``).

:func:`model_check` explores the full reachable state graph
breadth-first and checks, on every edge and every terminal state:

* **exactly-one termination** — no request terminates twice (the
  model-level lift of :func:`repro.verify.check_conservation` from one
  trace to the whole interleaving space);
* **no silent loss** — a flight lost to a crash leaves the request in
  a state where failover or a deadline outcome is still possible; the
  planted ``drop_failover`` bug strands it and is reported;
* **hedge safety** — duplicate completions of a hedged request are
  discarded, never terminate it a second time; the planted
  ``dual_dispatch`` bug terminates again and is reported;
* **termination / livelock freedom** (``liveness=True``) — from every
  reachable state some fair continuation reaches the all-terminated
  state, despite the `ExponentialBackoff` retry loop (which the model
  collapses to the untimed ``failover`` transition it delays).

Counterexamples are shortest transition paths (BFS order), formatted
like sanitizer reports by :meth:`ProtocolWitness.format` and
exportable as chrome-trace lanes via :func:`witness_trace_events`.

:func:`check_replication_prefix` separately checks the one invariant
that lives in the *real* router rather than the abstraction: the
replica set of any fingerprint, hot or cold, is always a prefix of the
ring's distinct-node walk (so failover order and replication order
agree, and re-warming always copies to nodes that can be routed to).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

__all__ = [
    "ProtocolConfig",
    "ProtocolWitness",
    "ProtocolReport",
    "ConformanceReport",
    "model_check",
    "check_cluster_trace",
    "check_replication_prefix",
    "witness_trace_events",
]

# request outcomes the abstract model can produce (a subset of
# repro.serve.request.OUTCOMES: "rejected"/"breakdown" happen before or
# below the failover protocol and are not interleaving-dependent)
_OUTCOMES = ("served", "deadline_miss")

# node phases: up / down-unsuspected / down-suspected / not-yet-joined
_UP = ("u",)
_BELIEVED_UP = ("u", "d")  # 'd' = crashed inside the suspicion window


@dataclass(frozen=True)
class ProtocolConfig:
    """One abstract instance of the cluster protocol.

    Defaults are the CI selftest configuration demanded by the gate:
    3 nodes, 4 requests, hedging and one crash enabled.  ``walks``
    (per-request failover orders) default to the real seeded
    :class:`~repro.cluster.ring.HashRing` walk of ``"req:{i}"``, so the
    model routes with the same ring code the service does.  Node 0 is
    crash-exempt and never joins late, mirroring
    :meth:`repro.cluster.faults.NodeFaultPlan.seeded`.
    """

    n_nodes: int = 3
    n_requests: int = 4
    max_hedges: int = 1
    crash_budget: int = 1
    allow_recover: bool = True
    delayed_joins: int = 0
    drop_failover: bool = False
    dual_dispatch: bool = False
    ring_seed: int = 0
    vnodes: int = 8
    walks: tuple = ()

    def __post_init__(self):
        if self.n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {self.n_nodes}")
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if not 0 <= self.delayed_joins < self.n_nodes:
            raise ValueError(
                f"delayed_joins must leave node 0 present ({self.delayed_joins})"
            )
        if self.max_hedges < 0 or self.crash_budget < 0:
            raise ValueError("max_hedges and crash_budget must be >= 0")
        if not self.walks:
            object.__setattr__(self, "walks", self._ring_walks())
        for w in self.walks:
            if sorted(w) != list(range(self.n_nodes)):
                raise ValueError(f"walk {w!r} is not a distinct-node order")

    def _ring_walks(self):
        from ..cluster.ring import HashRing

        ring = HashRing(range(self.n_nodes), vnodes=self.vnodes, seed=self.ring_seed)
        return tuple(
            tuple(ring.walk(f"req:{i}")) for i in range(self.n_requests)
        )


@dataclass(frozen=True)
class ProtocolWitness:
    """One protocol violation with its shortest counterexample trace.

    ``kind`` is one of ``"double-termination"`` (a request terminated
    twice), ``"dropped-reroute"`` (a lost flight was dropped with no
    failover or deadline outcome reachable), ``"stuck-request"`` (a
    terminal state holds an unterminated request), ``"livelock"`` (a
    reachable state from which no fair continuation terminates every
    request), and ``"replication-prefix"`` (router replica set is not a
    walk prefix).  ``trace`` is the shortest transition path from the
    initial state (BFS order), one human-readable label per step.
    """

    kind: str
    detail: str
    trace: tuple = ()

    def format(self) -> str:
        lines = [
            f"WARNING: repro.verify.protocol: protocol violation ({self.kind})",
            f"  {self.detail}",
        ]
        if self.trace:
            lines.append(
                f"  Counterexample (shortest interleaving, {len(self.trace)} transitions):"
            )
            lines.extend(f"    #{i + 1} {step}" for i, step in enumerate(self.trace))
        return "\n".join(lines)


@dataclass
class ProtocolReport:
    """Outcome of one exhaustive exploration."""

    config: ProtocolConfig
    n_states: int = 0
    n_transitions: int = 0
    liveness_checked: bool = False
    witnesses: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.witnesses

    def format(self, max_witnesses: int = 4) -> str:
        shape = (
            f"{self.config.n_nodes} nodes / {self.config.n_requests} requests / "
            f"hedges<={self.config.max_hedges} / crashes<={self.config.crash_budget}"
        )
        if self.ok:
            live = " + livelock-freedom" if self.liveness_checked else ""
            return (
                f"protocol safe{live}: {self.n_states} states, "
                f"{self.n_transitions} transitions explored exhaustively ({shape})"
            )
        head = [f"{len(self.witnesses)} violation(s) in {self.n_states} states ({shape})"]
        head += [w.format() for w in self.witnesses[:max_witnesses]]
        if len(self.witnesses) > max_witnesses:
            head.append(f"  ... and {len(self.witnesses) - max_witnesses} more")
        return "\n".join(head)


# ----------------------------------------------------------------------
# the abstract transition system
# ----------------------------------------------------------------------
#
# Request state (hashable tuples, interned to small ints for speed):
#   ('q',)                      queued (admitted, not yet dispatched)
#   ('f', copies, hedges)       in flight on `copies` (sorted node tuple)
#   ('l', hedges)               lost: every copy crashed, failover pending
#   ('d', outcome, residual)    terminated; `residual` = hedge copies
#                               still in flight whose completions must
#                               be *discarded*, not re-terminated
#   ('x',)                      dropped by the drop_failover planted bug
#
# Node component: (phases, budget) with phases[n] in "udsj" and budget
# the remaining global crash allowance.  'd' (crashed, still believed
# up for one suspicion window) routes like a live node but refuses the
# connect — exactly the service's fast-failover path — so routing skips
# it; 's' is the post-suspicion view.  Recovery returns to 'u'.


def _route(walk, phases, exclude=()):
    """First actually-up node on the walk (the model's `_route`/`pick`).

    Believed-up-but-crashed candidates ('d') refuse the connect and the
    walk continues; suspected ('s') and unjoined ('j') nodes are
    skipped by the router's liveness predicate.  Net effect either way:
    the first *up* node not excluded, or None.
    """
    for n in walk:
        if phases[n] in _UP and n not in exclude:
            return n
    return None


class _Explorer:
    """Table-driven successor generation over interned state codes.

    A state is ``(req_code_0, ..., req_code_{R-1}, node_code)``.  The
    per-request and node-level transition relations are tiny (tens of
    entries), so they are memoized once and the BFS proper only does
    dict lookups and tuple surgery.
    """

    def __init__(self, cfg: ProtocolConfig):
        self.cfg = cfg
        self._renc: dict = {}
        self._rdec: list = []
        self._nenc: dict = {}
        self._ndec: list = []
        self._req_succ: dict = {}  # (req_i, rs_code, nc_code) -> transitions
        self._node_succ: dict = {}  # nc_code -> transitions
        self._crash_eff: dict = {}  # (rs_code, node) -> (rs_code', violation)

    # -- interning ------------------------------------------------------
    def _enc_req(self, rs):
        code = self._renc.get(rs)
        if code is None:
            code = len(self._rdec)
            self._renc[rs] = code
            self._rdec.append(rs)
        return code

    def _enc_node(self, nc):
        code = self._nenc.get(nc)
        if code is None:
            code = len(self._ndec)
            self._nenc[nc] = code
            self._ndec.append(nc)
        return code

    def initial_state(self):
        cfg = self.cfg
        phases = ["u"] * cfg.n_nodes
        for n in range(cfg.n_nodes - cfg.delayed_joins, cfg.n_nodes):
            phases[n] = "j"
        q = self._enc_req(("q",))
        nc = self._enc_node((tuple(phases), cfg.crash_budget))
        return (q,) * cfg.n_requests + (nc,)

    def is_final(self, state) -> bool:
        """All requests terminated with every duplicate copy drained."""
        for code in state[:-1]:
            rs = self._rdec[code]
            if rs[0] != "d" or rs[2]:
                return False
        return True

    # -- per-request transitions ---------------------------------------
    def _req_transitions(self, i, rs_code, nc_code):
        key = (i, rs_code, nc_code)
        cached = self._req_succ.get(key)
        if cached is not None:
            return cached
        cfg = self.cfg
        rs = self._rdec[rs_code]
        phases, _ = self._ndec[nc_code]
        walk = cfg.walks[i]
        out = []
        kind = rs[0]
        if kind == "q":
            n = _route(walk, phases)
            if n is not None:
                out.append((("dispatch", i, n), self._enc_req(("f", (n,), 0)), None))
            # the deadline can expire while queued (node busy / backlog)
            out.append(
                (("deadline", i, None), self._enc_req(("d", "deadline_miss", ())), None)
            )
        elif kind == "f":
            copies, hedges = rs[1], rs[2]
            for n in copies:
                if phases[n] in _UP:
                    residual = tuple(c for c in copies if c != n)
                    out.append(
                        (("complete", i, n), self._enc_req(("d", "served", residual)), None)
                    )
            if hedges < cfg.max_hedges:
                n2 = _route(walk, phases, exclude=copies)
                if n2 is not None:
                    grown = tuple(sorted(copies + (n2,)))
                    out.append(
                        (("hedge", i, n2), self._enc_req(("f", grown, hedges + 1)), None)
                    )
        elif kind == "l":
            hedges = rs[1]
            n = _route(walk, phases)
            if n is not None:
                out.append(
                    (("failover", i, n), self._enc_req(("f", (n,), hedges)), None)
                )
            out.append(
                (("deadline", i, None), self._enc_req(("d", "deadline_miss", ())), None)
            )
        elif kind == "d":
            outcome, residual = rs[1], rs[2]
            for n in residual:
                if phases[n] in _UP:
                    rest = tuple(c for c in residual if c != n)
                    viol = "double-termination" if cfg.dual_dispatch else None
                    out.append(
                        (("discard", i, n), self._enc_req(("d", outcome, rest)), viol)
                    )
        # 'x' (dropped) has no transitions: the request is stranded
        out = tuple(out)
        self._req_succ[key] = out
        return out

    # -- node-level transitions ----------------------------------------
    def _node_transitions(self, nc_code):
        cached = self._node_succ.get(nc_code)
        if cached is not None:
            return cached
        cfg = self.cfg
        phases, budget = self._ndec[nc_code]
        out = []
        for n, ph in enumerate(phases):
            if ph == "u" and n != 0 and budget > 0:
                nxt = phases[:n] + ("d",) + phases[n + 1 :]
                out.append((("crash", None, n), self._enc_node((nxt, budget - 1)), n))
            elif ph == "d":
                nxt = phases[:n] + ("s",) + phases[n + 1 :]
                out.append((("suspect", None, n), self._enc_node((nxt, budget)), None))
                if cfg.allow_recover:
                    nxt = phases[:n] + ("u",) + phases[n + 1 :]
                    out.append((("recover", None, n), self._enc_node((nxt, budget)), None))
            elif ph == "s" and cfg.allow_recover:
                nxt = phases[:n] + ("u",) + phases[n + 1 :]
                out.append((("recover", None, n), self._enc_node((nxt, budget)), None))
            elif ph == "j":
                nxt = phases[:n] + ("u",) + phases[n + 1 :]
                out.append((("join", None, n), self._enc_node((nxt, budget)), None))
        out = tuple(out)
        self._node_succ[nc_code] = out
        return out

    def _crash_effect(self, rs_code, node):
        """A crash of `node` seen by one request: lose its copies there."""
        key = (rs_code, node)
        cached = self._crash_eff.get(key)
        if cached is not None:
            return cached
        rs = self._rdec[rs_code]
        result = (rs_code, None)
        if rs[0] == "f" and node in rs[1]:
            remaining = tuple(c for c in rs[1] if c != node)
            if remaining:
                result = (self._enc_req(("f", remaining, rs[2])), None)
            elif self.cfg.drop_failover:
                result = (self._enc_req(("x",)), "dropped-reroute")
            else:
                result = (self._enc_req(("l", rs[2])), None)
        elif rs[0] == "d" and node in rs[2]:
            rest = tuple(c for c in rs[2] if c != node)
            result = (self._enc_req(("d", rs[1], rest)), None)
        self._crash_eff[key] = result
        return result

    def successors(self, state):
        """Yield ``(edge, next_state, violation_kind_or_None)``."""
        nc_code = state[-1]
        reqs = state[:-1]
        for edge, nc2, crashed in self._node_transitions(nc_code):
            if crashed is None:
                yield edge, reqs + (nc2,), None
            else:
                new = list(reqs)
                viol = None
                for i, rc in enumerate(reqs):
                    rc2, v = self._crash_effect(rc, crashed)
                    new[i] = rc2
                    if v is not None and viol is None:
                        viol = (v, i, crashed)
                yield edge, tuple(new) + (nc2,), viol
        for i, rc in enumerate(reqs):
            for edge, rc2, v in self._req_transitions(i, rc, nc_code):
                viol = None if v is None else (v, i, edge[2])
                yield edge, reqs[:i] + (rc2,) + reqs[i + 1 :] + (state[-1],), viol


def _fmt_edge(edge) -> str:
    kind, req, node = edge
    if kind in ("dispatch", "hedge", "failover"):
        return f"{kind}(req {req} -> node {node})"
    if kind in ("complete", "discard"):
        verb = "complete" if kind == "complete" else "discard duplicate"
        return f"{verb}(req {req} on node {node})"
    if kind == "deadline":
        return f"deadline(req {req})"
    if kind in ("crash", "suspect", "recover", "join"):
        return f"{kind}(node {node})"
    return f"{kind}({req}, {node})"


def _viol_detail(viol) -> str:
    kind, req, node = viol
    if kind == "double-termination":
        return (
            f"request {req} terminated a second time by a duplicate completion "
            f"on node {node} (hedged copies must be discarded after the winner)"
        )
    if kind == "dropped-reroute":
        return (
            f"request {req} lost to the crash of node {node} was dropped: no "
            f"failover or deadline outcome is reachable (drop_failover path)"
        )
    return kind


def model_check(
    cfg: ProtocolConfig | None = None,
    *,
    liveness: bool = False,
    stop_on_first: bool = False,
    max_states: int = 4_000_000,
) -> ProtocolReport:
    """Exhaustively explore the abstract protocol and check every invariant.

    BFS over the reachable state graph; parent pointers give shortest
    counterexample traces.  With ``liveness=True`` the forward sweep
    additionally records the successor relation and then proves, by
    backward reachability from the all-terminated states, that every
    reachable state can still terminate every request (livelock
    freedom under a fair scheduler — one that always eventually picks
    an enabled terminating transition).  ``stop_on_first`` returns at
    the first violation (used for the planted-bug gates, where the
    witness, not the census, is the point).
    """
    cfg = cfg or ProtocolConfig()
    ex = _Explorer(cfg)
    report = ProtocolReport(config=cfg)
    init = ex.initial_state()
    parent: dict = {init: None}
    succ_ids: list = [] if liveness else None
    ids: dict = {init: 0} if liveness else None
    states_by_id: list = [init] if liveness else None
    frontier = deque([init])
    n_edges = 0
    violated_edges = set()

    def trace_to(state, last_edge=None):
        steps = []
        cur = state
        while parent[cur] is not None:
            prev, edge = parent[cur]
            steps.append(_fmt_edge(edge))
            cur = prev
        steps.reverse()
        if last_edge is not None:
            steps.append(_fmt_edge(last_edge))
        return tuple(steps)

    while frontier:
        state = frontier.popleft()
        out_degree = 0
        my_succ = [] if liveness else None
        for edge, nxt, viol in ex.successors(state):
            n_edges += 1
            out_degree += 1
            if viol is not None:
                # dedupe per (kind, request): one shortest witness each
                sig = viol[:2]
                if sig not in violated_edges:
                    violated_edges.add(sig)
                    report.witnesses.append(
                        ProtocolWitness(
                            kind=viol[0],
                            detail=_viol_detail(viol),
                            trace=trace_to(state, edge),
                        )
                    )
                    if stop_on_first:
                        report.n_states = len(parent)
                        report.n_transitions = n_edges
                        return report
            if nxt not in parent:
                if len(parent) >= max_states:
                    raise RuntimeError(
                        f"state space exceeds max_states={max_states}; "
                        f"shrink the ProtocolConfig"
                    )
                parent[nxt] = (state, edge)
                frontier.append(nxt)
                if liveness:
                    ids[nxt] = len(states_by_id)
                    states_by_id.append(nxt)
                    succ_ids.append(None)  # filled when expanded
            if liveness:
                my_succ.append(ids[nxt])
        if liveness:
            sid = ids[state]
            while len(succ_ids) <= sid:
                succ_ids.append(None)
            succ_ids[sid] = my_succ
        if out_degree == 0 and not ex.is_final(state):
            # a genuinely stuck state: some request can never terminate
            stuck = [
                i
                for i, code in enumerate(state[:-1])
                if ex._rdec[code][0] != "d" or ex._rdec[code][2]
            ]
            report.witnesses.append(
                ProtocolWitness(
                    kind="stuck-request",
                    detail=(
                        f"terminal state with unterminated request(s) {stuck}: "
                        f"no transition is enabled"
                    ),
                    trace=trace_to(state),
                )
            )
            if stop_on_first:
                report.n_states = len(parent)
                report.n_transitions = n_edges
                return report

    report.n_states = len(parent)
    report.n_transitions = n_edges

    if liveness:
        # backward reachability from the good (all-terminated) states
        n = len(states_by_id)
        preds: list = [[] for _ in range(n)]
        for sid, outs in enumerate(succ_ids):
            for t in outs or ():
                preds[t].append(sid)
        can_finish = bytearray(n)
        work = deque()
        for sid, state in enumerate(states_by_id):
            if ex.is_final(state):
                can_finish[sid] = 1
                work.append(sid)
        while work:
            sid = work.popleft()
            for p in preds[sid]:
                if not can_finish[p]:
                    can_finish[p] = 1
                    work.append(p)
        report.liveness_checked = True
        for sid in range(n):
            if not can_finish[sid]:
                state = states_by_id[sid]
                stuck = [
                    i for i, code in enumerate(state[:-1]) if ex._rdec[code][0] != "d"
                ]
                report.witnesses.append(
                    ProtocolWitness(
                        kind="livelock",
                        detail=(
                            f"reachable state from which request(s) {stuck} can "
                            f"never terminate under any fair continuation"
                        ),
                        trace=trace_to(state),
                    )
                )
                break  # one witness suffices; the rest are reachable from it
    return report


# ----------------------------------------------------------------------
# abstraction cross-check: replay a real ClusterService protocol trace
# ----------------------------------------------------------------------


@dataclass
class ConformanceReport:
    """Did a recorded real trace stay inside the abstract transition system?"""

    n_events: int = 0
    n_jobs: int = 0
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def format(self) -> str:
        if self.ok:
            return (
                f"trace conforms: {self.n_events} protocol events over "
                f"{self.n_jobs} dispatched jobs replay in the abstract model"
            )
        head = [f"{len(self.violations)} conformance violation(s):"]
        head += [f"  {v}" for v in self.violations[:8]]
        return "\n".join(head)


def check_cluster_trace(events, *, n_nodes, up_at_start=None) -> ConformanceReport:
    """Replay a ``ClusterService.protocol_trace`` through the abstract rules.

    ``events`` is the list the service records: ``("dispatch", t, bid,
    node, is_hedge)``, ``("complete"|"duplicate"|"lose", t, bid,
    node)``, ``("deadline"|"reject", t, bid)``, ``("crash"|"recover"|
    "join", t, node)``.  Events are replayed in virtual-time order
    (stable for ties, which the event loop already emits in causal
    order).  Every event must be an enabled transition of the abstract
    protocol given the state built so far — so any real behavior
    outside the model (a dispatch to a down node, a second termination,
    a lost job that never resolves) is reported, which is what makes
    the model checker's "passes on the real protocol" claim sound.
    """
    rep = ConformanceReport(n_events=len(events))
    up = {
        n: True if up_at_start is None else bool(up_at_start(n))
        for n in range(n_nodes)
    }
    jobs: dict = {}  # bid -> {"copies": set, "state": "inflight"|"lost"|"done"}
    for ev in sorted(events, key=lambda e: e[1]):
        kind, _t = ev[0], ev[1]
        if kind in ("crash", "recover", "join"):
            up[ev[2]] = kind != "crash"
            continue
        bid = ev[2]
        job = jobs.get(bid)
        if kind == "dispatch":
            node, is_hedge = ev[3], ev[4]
            if not up.get(node, False):
                rep.violations.append(
                    f"job {bid}: dispatched to node {node} while it is down"
                )
            if job is None:
                if is_hedge:
                    rep.violations.append(f"job {bid}: first dispatch marked as hedge")
                jobs[bid] = {"copies": {node}, "state": "inflight"}
            elif job["state"] == "lost" and not is_hedge:
                job["copies"] = {node}
                job["state"] = "inflight"
            elif job["state"] == "inflight" and is_hedge:
                if node in job["copies"]:
                    rep.violations.append(
                        f"job {bid}: hedge re-dispatched to node {node} already in flight"
                    )
                job["copies"].add(node)
            else:
                rep.violations.append(
                    f"job {bid}: dispatch while {job['state']}"
                    + ("" if is_hedge else " without a lost flight (dual dispatch)")
                )
        elif kind in ("complete", "duplicate", "lose"):
            node = ev[3]
            if job is None or node not in job["copies"]:
                rep.violations.append(f"job {bid}: {kind} on node {node} with no flight there")
                continue
            job["copies"].discard(node)
            if kind == "complete":
                if job["state"] == "done":
                    rep.violations.append(
                        f"job {bid}: second termination by completion on node {node}"
                    )
                job["state"] = "done"
            elif kind == "duplicate":
                if job["state"] != "done":
                    rep.violations.append(
                        f"job {bid}: duplicate discarded before any completion"
                    )
            else:  # lose
                if job["state"] == "inflight" and not job["copies"]:
                    job["state"] = "lost"
        elif kind in ("deadline", "reject"):
            if job is None:
                # a batch can expire or be rejected before its first
                # dispatch (queued deadline; cluster-down backpressure)
                jobs[bid] = {"copies": set(), "state": "done"}
            elif job["state"] == "lost" or (kind == "reject" and job["state"] != "done"):
                job["state"] = "done"
            else:
                rep.violations.append(f"job {bid}: {kind} while {job['state']}")
        else:
            rep.violations.append(f"unknown protocol event kind {kind!r}")
    rep.n_jobs = len(jobs)
    for bid, job in sorted(jobs.items()):
        if job["state"] != "done":
            rep.violations.append(
                f"job {bid}: never terminated (final state {job['state']!r})"
            )
    return rep


# ----------------------------------------------------------------------
# the router-level invariant: replicas are a walk prefix
# ----------------------------------------------------------------------


def check_replication_prefix(
    *,
    n_nodes: int = 5,
    replication: int = 3,
    vnodes: int = 32,
    seed: int = 0,
    hot_promote: int = 3,
    n_fingerprints: int = 64,
) -> list:
    """Check replicas(fp) == walk(fp)[:k] for hot and cold fingerprints.

    The walk order doubles as the failover order, so this prefix
    property is what guarantees a re-warmed replica is always on a node
    the failover path will actually try.  Returns violation strings
    (empty = proven for this membership / seed / promotion schedule).
    """
    from ..cluster.ring import Router

    router = Router(
        range(n_nodes),
        replication=replication,
        vnodes=vnodes,
        seed=seed,
        hot_promote=hot_promote,
    )
    violations = []
    fps = [f"fp:{i}" for i in range(n_fingerprints)]
    for i, fp in enumerate(fps):
        # promote every third fingerprint to the hot set
        for _ in range(hot_promote if i % 3 == 0 else 1):
            router.observe(fp)
    for fp in fps:
        walk = router.ring.walk(fp)
        reps = router.replicas(fp)
        k = replication if router.is_hot(fp) else 1
        if list(reps) != list(walk[:k]):
            violations.append(
                f"{fp}: replicas {list(reps)} != walk prefix {list(walk[:k])} "
                f"(hot={router.is_hot(fp)})"
            )
        if len(set(reps)) != len(reps):
            violations.append(f"{fp}: replica set has duplicates: {list(reps)}")
    return violations


# ----------------------------------------------------------------------
# chrome-trace export of witnesses
# ----------------------------------------------------------------------


def witness_trace_events(witness: ProtocolWitness, *, pid: int = 7, n_nodes: int = 3):
    """Render a counterexample as chrome-trace lanes (one per node).

    Each transition becomes an instant on the lane of the node it
    touches (request-only transitions land on a ``protocol`` lane),
    spaced 1 us apart in trace order — the same navigable timeline
    view the cluster bench exports, for stepping through a violation.
    Compatible with :func:`repro.obs.write_chrome_trace`.
    """
    from ..obs.chrome_trace import transition_lane_events

    steps = []
    for i, label in enumerate(witness.trace):
        lane = n_nodes  # the request-level "protocol" lane
        if "node " in label:
            try:
                lane = int(label.rsplit("node ", 1)[1].rstrip(")"))
            except ValueError:
                lane = n_nodes
        steps.append((i, lane, label))
    lanes = {n: f"node {n}" for n in range(n_nodes)}
    lanes[n_nodes] = "protocol"
    return transition_lane_events(
        steps, pid=pid, cat="verify.protocol", lane_names=lanes,
        title=f"violation: {witness.kind}",
    )
