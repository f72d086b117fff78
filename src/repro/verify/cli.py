"""``python -m repro.verify`` — run every static-analysis pass and gate on it.

Passes (any failure makes the exit code 1):

``lint``
    The repo-specific AST rules (:mod:`repro.verify.lint`) over the
    given paths (default: the installed ``repro`` package source).
``schedules``
    For every matrix of the synthetic suite (at ``--scale``): build the
    Javelin two-stage schedule, then (a) prove the pruned sync set of
    both the static and the dynamic row→thread map covers the true
    dependency DAG (:mod:`repro.verify.pruning`, with the pruning ratio
    reported), (b) replay both schedules with vector clocks and demand
    race-freedom (:mod:`repro.verify.races`) — both read the one wait
    table the DES and the threaded runtime use, so they certify those
    directly — and (c) run the ER/SR lower-stage structural coverage
    checks.
``invariants``
    Structural validation of the patterns, level sets, plans and cached
    symbolic products the schedule pass built (including the
    frozen-cache-arrays rule).
``selftest``
    Negative controls: a seeded dropped-publish fault plan must be
    *flagged* by the race detector (on the schedule and on a DES trace
    replay), and deleting one retained sync edge must break the pruning
    proof.  A detector that cannot see planted bugs proves nothing.
``protocol`` (opt-in: ``--protocol``)
    Exhaustive small-N model checking of the cluster request protocol
    (:mod:`repro.verify.protocol`): every interleaving of dispatch /
    complete / lose / failover / hedge / crash / recover / join must
    keep the termination invariants, with livelock-freedom proved by
    backward reachability; the replication set must stay a prefix of
    the ring walk; the two planted protocol bugs (``drop_failover``,
    ``dual_dispatch``) must each be *caught* with a shortest
    counterexample; and a real :class:`ClusterService` run's recorded
    ``protocol_trace`` must conform to the model.
``deadlock`` (opt-in: ``--deadlock``)
    Static wait-for-graph analysis of the trisolve schedulers
    (:mod:`repro.verify.deadlock`): superstep barrier/program-order
    acyclicity, sync-free flag-poll acyclicity by topological sort,
    and the elastic ``final_sweep`` fixpoint recursion + its
    ``staleness``-based sweep bound — clean on every suite schedule,
    with tampered negative controls that must be caught.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

__all__ = [
    "main",
    "build_parser",
    "run_lint",
    "run_schedules",
    "run_selftest",
    "run_protocol",
    "run_deadlock",
]

_PASSES = ("lint", "schedules", "invariants", "selftest", "protocol", "deadlock")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro.verify", description=__doc__)
    p.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package source)",
    )
    p.add_argument("--scale", type=float, default=0.25, help="suite size multiplier")
    p.add_argument(
        "--matrices",
        default=None,
        help="comma-separated suite names (default: the whole suite)",
    )
    p.add_argument("--threads", type=int, default=4, help="simulated thread count")
    p.add_argument(
        "--skip",
        action="append",
        default=[],
        choices=_PASSES,
        help="skip a pass (repeatable)",
    )
    p.add_argument("--list-rules", action="store_true", help="print lint rule IDs and exit")
    p.add_argument(
        "--protocol",
        action="store_true",
        help="also model-check the cluster request protocol (exhaustive small-N)",
    )
    p.add_argument(
        "--deadlock",
        action="store_true",
        help="also run the static scheduler deadlock/fixpoint analysis",
    )
    p.add_argument(
        "--witness-out",
        default=None,
        metavar="PATH",
        help="write the protocol counterexample traces as Chrome trace JSON",
    )
    p.add_argument("-v", "--verbose", action="store_true")
    return p


def run_lint(paths, *, out=print) -> int:
    """Run the AST lint; returns the number of findings."""
    from .lint import RULES, iter_python_files, lint_paths

    files = list(iter_python_files(paths))
    findings = lint_paths(paths)
    for f in findings:
        out(f.format())
    out(
        f"[lint] {len(findings)} finding(s) in {len(files)} file(s) "
        f"(rules {', '.join(sorted(RULES))})"
    )
    return len(findings)


def _suite_matrices(names, scale):
    from ..matrices import SUITE, build_matrix, preorder_for_javelin

    picked = sorted(SUITE) if names is None else [s.strip() for s in names.split(",")]
    for name in picked:
        if name not in SUITE:
            raise SystemExit(f"unknown suite matrix {name!r}")
        yield name, preorder_for_javelin(build_matrix(name, scale=scale))


def run_schedules(args, *, out=print):
    """Pruning + race + lower-stage checks across the suite.

    Returns ``(n_failures, worklist)`` where ``worklist`` carries the
    per-matrix objects for the invariants pass.
    """
    from ..core import JavelinILU
    from ..core.lower_sr import SegmentedRows
    from ..core.upper import assign_dynamic, assign_round_robin
    from ..kernels import cached_analysis
    from ..machine import SimMachine, uniform_machine
    from .pruning import check_lower_er, check_lower_sr, check_pruning
    from .races import replay_schedule

    p = args.threads
    machine = SimMachine(uniform_machine(n_cores=p), p)
    failures = 0
    worklist = []
    ratios = {"static": [], "dynamic": []}
    reads = 0
    for name, A in _suite_matrices(args.matrices, args.scale):
        ilu = JavelinILU().setup(A)
        S, level_ptr, m = ilu.S_perm, ilu.level_ptr, ilu.m
        ana = cached_analysis(S)
        flops, touched = ana.factor_costs()
        maps = {"static": assign_round_robin(level_ptr, p)}
        maps["dynamic"], _ = assign_dynamic(level_ptr, p, machine, flops, touched)
        for policy, thread_of in maps.items():
            pr = check_pruning(S, thread_of, m=m)
            rr = replay_schedule(S, thread_of, m=m)
            ratios[policy].append(pr.pruning_ratio)
            reads += rr.n_reads_checked
            if not pr.ok:
                failures += 1
                out(f"[pruning] {name} ({policy}): {pr.format()}")
            if not rr.ok:
                failures += 1
                out(f"[races] {name} ({policy}): {rr.format()}")
            if args.verbose:
                out(f"[schedules] {name} ({policy}): {pr.format()}")
        n = S.n_rows
        if n > m:
            er = check_lower_er(S, m, p)
            if not er.ok:
                failures += 1
                out(f"[lower-er] {name}: {er.format()}")
            sr = SegmentedRows.build(S, m, level_ptr)
            srr = check_lower_sr(sr, S, m, level_ptr)
            if not srr.ok:
                failures += 1
                out(f"[lower-sr] {name}: {srr.format()}")
        worklist.append((name, ilu, ana))
    for policy in ("static", "dynamic"):
        if ratios[policy]:
            r = ratios[policy]
            out(
                f"[pruning] {policy}: sync coverage proved on {len(r)} matrices, "
                f"pruning ratio mean {float(np.mean(r)):.3f} "
                f"(min {min(r):.3f}, max {max(r):.3f})"
            )
    out(f"[races] {reads} reads checked across static+dynamic schedules")
    return failures, worklist


def run_invariants(worklist, *, out=print) -> int:
    """Validate the structures the schedule pass built."""
    from .invariants import InvariantViolation, validate_analysis, validate_csr, validate_levels

    failures = 0
    for name, ilu, ana in worklist:
        try:
            validate_csr(ilu.S_perm, require_diagonal=True, name=f"{name}.S_perm")
            validate_csr(ilu.A_perm, name=f"{name}.A_perm")
            validate_levels(ilu.schedule.levels, name=f"{name}.levels")
            # force the sweep plans so the frozen-cache rule has entries to see
            ana.plan("lower")
            ana.plan("upper")
            validate_analysis(ana, name=f"{name}.analysis")
        except InvariantViolation as e:
            failures += 1
            out(f"[invariants] {name}: {e}")
    out(f"[invariants] {len(worklist)} matrices validated" + (" with failures" if failures else ""))
    return failures


def run_selftest(args, *, out=print) -> int:
    """Negative controls: planted bugs must be detected."""
    from ..core import JavelinILU
    from ..core.upper import assign_round_robin, simulate_upper_p2p
    from ..kernels import cached_analysis
    from ..machine import SimMachine, uniform_machine
    from ..matrices import build_matrix, preorder_for_javelin
    from ..resilience import FaultPlan, drop_last_publish
    from .pruning import check_pruning
    from .races import replay_schedule, replay_trace, sync_edges_from_producer_csr

    failures = 0
    p = args.threads
    A = preorder_for_javelin(build_matrix("wang3", scale=args.scale))
    ilu = JavelinILU().setup(A)
    S, level_ptr, m = ilu.S_perm, ilu.level_ptr, ilu.m
    thread_of = assign_round_robin(level_ptr, p)

    # 1) a dropped publish with no surviving cover must be flagged on the
    # schedule.  Seed it deterministically: take the first cross-thread
    # dependency edge c -> r and drop every publish of c's owner from c
    # on, so no later publish of that thread can heal the loss.  (The
    # plainer ``drop_last_publish`` seed can be vacuous when the
    # thread's last row has no upper-stage consumer.)
    edge = next(
        (
            (int(c), r)
            for r in range(m)
            for c in S.indices[S.indptr[r] : S.indptr[r + 1]]
            if c < r and int(thread_of[c]) != int(thread_of[r])
        ),
        None,
    )
    if edge is None:
        out("[selftest] no cross-thread edge at this scale; raise --scale")
        return failures + 1
    c0, _ = edge
    victim = int(thread_of[c0])
    dropped = frozenset(
        (victim, row) for row in range(c0, m) if int(thread_of[row]) == victim
    )
    assert dropped >= drop_last_publish(thread_of[:m], victim)
    plan = FaultPlan(dropped=dropped)
    rep = replay_schedule(S, thread_of, m=m, fault_plan=plan)
    flagged = any(w.kind == "dropped-publish" for w in rep.witnesses)
    if not flagged:
        failures += 1
        out("[selftest] FAIL: dropped-publish schedule was not flagged")
    else:
        out(
            f"[selftest] dropped publishes of thread {victim} (rows >= {c0}) flagged: "
            f"{len(rep.witnesses)} witness(es), first: "
            f"{rep.witnesses[0].kind} row {rep.witnesses[0].row} <- "
            f"dep {rep.witnesses[0].dep}"
        )

    # 2) the same fault plan on a DES trace replay
    machine = SimMachine(uniform_machine(n_cores=p), p)
    flops, touched = cached_analysis(S).factor_costs()
    _, _, trace = simulate_upper_p2p(
        S, level_ptr, machine, flops, touched, fault_plan=plan
    )
    rep_t = replay_trace(trace, S, fault_plan=plan)
    if rep_t.ok:
        failures += 1
        out("[selftest] FAIL: dropped-publish DES trace was not flagged")
    else:
        out(f"[selftest] fault-injected DES trace flagged ({len(rep_t.witnesses)} witness(es))")
    # the fault-free trace must be clean
    _, _, trace0 = simulate_upper_p2p(S, level_ptr, machine, flops, touched)
    rep0 = replay_trace(trace0, S)
    if not rep0.ok:
        failures += 1
        out(f"[selftest] FAIL: fault-free DES trace reported races: {rep0.format()}")

    # 3) deleting one retained sync edge must break the pruning proof
    from ..kernels.plans import build_producer_csr

    sync = sync_edges_from_producer_csr(*build_producer_csr(S, m, thread_of))
    victim_row = next((r for r in range(m) if sync[r]), None)
    if victim_row is not None:
        u = next(iter(sync[victim_row]))
        del sync[victim_row][u]
        pr = check_pruning(S, thread_of, m=m, sync=sync)
        rr = replay_schedule(S, thread_of, m=m, sync=sync)
        if pr.ok or rr.ok:
            failures += 1
            out("[selftest] FAIL: removed sync edge not caught "
                f"(pruning ok={pr.ok}, races ok={rr.ok})")
        else:
            out(
                f"[selftest] removed sync (row {victim_row}, thread {u}) caught by "
                f"pruning ({len(pr.uncovered)} uncovered) and races "
                f"({len(rr.witnesses)} witness(es))"
            )
    if failures == 0:
        out("[selftest] all planted bugs detected")
    return failures


def run_protocol(args, *, out=print) -> int:
    """Model-check the cluster protocol; planted bugs must be caught."""
    import dataclasses

    from .protocol import (
        ProtocolConfig,
        check_cluster_trace,
        check_replication_prefix,
        model_check,
        witness_trace_events,
    )

    failures = 0
    witness_events = []

    # 1) replication sets are always a prefix of the ring walk, even
    # across hot-key promotion
    viols = check_replication_prefix()
    if viols:
        failures += 1
        out(f"[protocol] FAIL: replication-prefix violated: {viols[0]}")
    else:
        out("[protocol] replication sets stay a prefix of the ring walk")

    # 2) the real protocol is safe across ALL interleavings of the
    # selftest configuration (>=3 nodes, >=4 requests, crash + hedge)
    cfg = ProtocolConfig()
    rep = model_check(cfg)
    if not rep.ok:
        failures += 1
    out(f"[protocol] {rep.format()}")

    # 3) ... and livelock-free under fairness on a richer configuration
    # (deeper crash budget + a delayed join)
    cfg_live = dataclasses.replace(cfg, crash_budget=2, delayed_joins=1)
    rep_live = model_check(cfg_live, liveness=True)
    if not rep_live.ok:
        failures += 1
    out(f"[protocol] {rep_live.format()}")

    # 4) negative controls: both planted bugs must produce a shortest
    # counterexample (a checker that cannot see them proves nothing)
    for flag, expect in (("drop_failover", "dropped-reroute"),
                         ("dual_dispatch", "double-termination")):
        bad = model_check(
            dataclasses.replace(cfg, **{flag: True}), stop_on_first=True
        )
        hit = [w for w in bad.witnesses if w.kind == expect]
        if not hit:
            failures += 1
            out(f"[protocol] FAIL: planted {flag} bug was not caught")
        else:
            w = hit[0]
            out(
                f"[protocol] planted {flag} caught: {w.kind} in "
                f"{len(w.trace)} transition(s)"
            )
            if args.verbose:
                out(w.format())
            witness_events.extend(
                witness_trace_events(w, n_nodes=cfg.n_nodes)
            )

    # 5) a real ClusterService run (crashes mid-flight, hedging on)
    # must replay inside the abstract model
    failures += _protocol_conformance_smoke(out=out)

    if args.witness_out and witness_events:
        from ..obs.chrome_trace import validate_events, write_chrome_trace

        errs = validate_events(witness_events)
        if errs:
            failures += 1
            out(f"[protocol] FAIL: witness trace invalid: {errs[0]}")
        else:
            write_chrome_trace(args.witness_out, witness_events)
            out(f"[protocol] counterexample traces written to {args.witness_out}")
    return failures


def _protocol_conformance_smoke(*, out=print) -> int:
    """Replay one real crashy ClusterService run through the model."""
    from ..cluster import ClusterService, NodeFaultPlan
    from ..matrices import grid2d
    from ..serve import BatchPolicy, SolveRequest
    from .protocol import check_cluster_trace

    matrices = {
        "g10": grid2d(10),
        "c10": grid2d(10, convection=1.0),
        "g14": grid2d(14),
    }
    keys = sorted(matrices)
    rng = np.random.default_rng(0)
    reqs, t = [], 0.0
    for i in range(48):
        t += float(rng.exponential(1.0 / 800.0))
        key = keys[int(rng.integers(len(keys)))]
        reqs.append(
            SolveRequest(
                request_id=i,
                tenant=f"t{int(rng.integers(2))}",
                matrix_key=key,
                b=rng.standard_normal(matrices[key].n_rows),
                arrival_time=t,
                deadline=t + 0.3,
                maxiter=60,
            )
        )
    plan = NodeFaultPlan(
        seed=1,
        crashes=((1, 0.01, 0.08), (2, 0.05, 0.12)),
        slow=((1, 0.0, 0.01, 8.0),),
    )
    svc = ClusterService(
        matrices,
        n_nodes=3,
        replication=2,
        batch_policy=BatchPolicy(max_batch=8, max_wait=0.01),
        node_fault_plan=plan,
        hedge_after=0.005,
    )
    svc.run(reqs)
    conf = check_cluster_trace(
        svc.protocol_trace,
        n_nodes=3,
        up_at_start=lambda n: plan.is_up(n, 0.0),
    )
    out(f"[protocol] {conf.format()}")
    return 0 if conf.ok else 1


def run_deadlock(args, *, out=print) -> int:
    """Static scheduler wait-for analysis; tampering must be caught."""
    import dataclasses

    from ..sched import build_elastic_schedule, build_superstep_plan
    from .deadlock import (
        check_elastic_schedule,
        check_superstep_deadlock,
        check_syncfree_deadlock,
    )

    failures = 0
    p = args.threads
    n_edges = 0
    n_plans = 0
    last = None  # (name, pattern, lower plan) for the negative controls
    for name, A in _suite_matrices(args.matrices, args.scale):
        S = A  # scheduler analyses run on the preordered pattern itself
        for part in ("lower", "upper"):
            plan = build_superstep_plan(S, part, n_threads=p)
            rep = check_superstep_deadlock(plan, S)
            n_edges += rep.n_edges
            n_plans += 1
            if not rep.ok:
                failures += 1
                out(f"[deadlock] {name} superstep/{part}: {rep.format()}")
            sf = check_syncfree_deadlock(S, p, part)
            if not sf.ok:
                failures += 1
                out(f"[deadlock] {name} syncfree/{part}: {sf.format()}")
            for staleness in (0, 2):
                es = build_elastic_schedule(S, part, staleness=staleness)
                er = check_elastic_schedule(es, S)
                if not er.ok:
                    failures += 1
                    out(f"[deadlock] {name} elastic/{part}/s={staleness}: {er.format()}")
            if part == "lower" and plan.n_steps >= 2:
                last = (name, S, plan)
        if args.verbose:
            out(f"[deadlock] {name}: superstep/syncfree/elastic wait-for graphs acyclic")
    out(
        f"[deadlock] {n_plans} superstep plans + sync-free lanes + elastic "
        f"fixpoints proved acyclic/terminating ({n_edges} dependency edges)"
    )

    # negative controls on the last multi-step lower plan
    if last is None:
        out("[deadlock] no multi-step plan at this scale; raise --scale")
        return failures + 1
    name, S, plan = last
    tampered = np.delete(plan.step_ptr, plan.n_steps // 2 or 1)
    rep = check_superstep_deadlock(plan, S, step_ptr=tampered)
    if rep.ok or not any(w.kind == "unordered-read" for w in rep.witnesses):
        failures += 1
        out(f"[deadlock] FAIL: deleted barrier on {name} not caught")
    else:
        out(
            f"[deadlock] deleted barrier on {name} caught "
            f"({len(rep.witnesses)} unordered-read witness(es))"
        )
    sf = check_syncfree_deadlock(
        S, p, "lower", order=np.arange(S.n_rows - 1, -1, -1)
    )
    if sf.ok or not any(w.kind == "deadlock" for w in sf.witnesses):
        failures += 1
        out(f"[deadlock] FAIL: reversed sync-free traversal on {name} not caught")
    else:
        out(f"[deadlock] reversed sync-free traversal on {name} caught (poll cycle)")
    es = build_elastic_schedule(S, "lower", staleness=2)
    fs = np.asarray(es.final_sweep).copy()
    if fs.max() == 0:
        out(f"[deadlock] {name} has a flat elastic fixpoint; raise --scale")
        failures += 1
    else:
        fs[int(np.argmax(fs))] = 0
        er = check_elastic_schedule(dataclasses.replace(es, final_sweep=fs), S)
        if er.ok or not any(w.kind == "fixpoint" for w in er.witnesses):
            failures += 1
            out(f"[deadlock] FAIL: tampered final_sweep on {name} not caught")
        else:
            out(
                f"[deadlock] tampered elastic final_sweep on {name} caught "
                "(fixpoint witness)"
            )
    if args.verbose and rep.witnesses:
        out(rep.witnesses[0].format())
    return failures


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        from .lint import RULES

        for rule_id, check in sorted(RULES.items()):
            doc = (check.__doc__ or "").strip().splitlines()
            print(f"{rule_id}: {doc[0] if doc else check.__name__}")
        return 0
    paths = args.paths or [str(Path(__file__).resolve().parents[1])]
    failures = 0
    if "lint" not in args.skip:
        failures += run_lint(paths)
    worklist = []
    if "schedules" not in args.skip:
        n, worklist = run_schedules(args)
        failures += n
    if "invariants" not in args.skip and worklist:
        failures += run_invariants(worklist)
    if "selftest" not in args.skip:
        failures += run_selftest(args)
    if args.protocol and "protocol" not in args.skip:
        failures += run_protocol(args)
    if args.deadlock and "deadlock" not in args.skip:
        failures += run_deadlock(args)
    print("PASS" if failures == 0 else f"FAIL ({failures} failure(s))")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
