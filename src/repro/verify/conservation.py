"""Request conservation: every admitted request ends in exactly one outcome.

The serving and cluster layers promise a closed ledger: a request
handed to :meth:`~repro.serve.SolveService.run` (or the cluster's
:meth:`~repro.cluster.ClusterService.run`) terminates in **exactly
one** :class:`~repro.serve.RequestResult` whose ``outcome`` is drawn
from the four-word vocabulary (``served`` / ``deadline_miss`` /
``rejected`` / ``breakdown``) — no silent drops, no duplicates, no
fifth state.  Under fault injection that promise is the whole
availability story: a node crash may *delay* or *degrade* a request,
but it must never make one disappear.

This module is the ledger auditor.  :func:`check_conservation` takes
the requests that went in and the results that came out and returns a
:class:`ConservationReport` listing every violation:

* a request with no result (**lost** — the planted-bug CI gate drops
  the cluster's failover re-route and demands this fires);
* a request with more than one result (**duplicated** — e.g. a hedged
  re-execution whose loser was not discarded);
* a result for a request that was never submitted (**phantom**);
* an outcome outside the vocabulary, or one inconsistent with its
  payload (``rejected`` carrying a solution, ``served`` without one,
  non-finite served values).

It is a *dynamic* checker — it audits a run, not the source — and so
lives beside the static analyses as the piece the fault-schedule
property tests and ``benchmarks/bench_cluster.py --check`` call after every
simulated run (see ``docs/cluster.md``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["ConservationReport", "check_conservation"]

#: mirrors :data:`repro.serve.request.OUTCOMES` (kept literal here so the
#: checker cannot drift silently with the vocabulary it audits)
_OUTCOMES = ("served", "deadline_miss", "rejected", "breakdown")


@dataclass
class ConservationReport:
    """Audit result: the violations, if any, of one run's ledger."""

    n_requests: int = 0
    n_results: int = 0
    outcome_counts: dict = field(default_factory=dict)
    violations: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self):
        return {
            "n_requests": self.n_requests,
            "n_results": self.n_results,
            "outcome_counts": dict(self.outcome_counts),
            "ok": self.ok,
            "violations": list(self.violations),
        }

    def __repr__(self):
        state = "ok" if self.ok else f"{len(self.violations)} violation(s)"
        return (
            f"ConservationReport({self.n_requests} requests -> "
            f"{self.n_results} results, {state})"
        )


def check_conservation(requests, results, *, outcomes=_OUTCOMES) -> ConservationReport:
    """Audit one run: ``requests`` in, ``results`` out, nothing lost.

    ``requests`` is the full submitted workload (admitted *and*
    rejected — rejection is itself a structured outcome); ``results``
    the run's returned :class:`~repro.serve.RequestResult` list.
    Returns a :class:`ConservationReport`; ``report.ok`` is the gate.
    """
    report = ConservationReport(n_requests=len(requests), n_results=len(results))
    expected = {}
    for req in requests:
        rid = int(req.request_id)
        if rid in expected:
            report.violations.append(f"request id {rid} submitted more than once")
        expected[rid] = req
    seen: dict = {}
    for res in results:
        rid = int(res.request_id)
        seen[rid] = seen.get(rid, 0) + 1
        outcome = res.outcome
        report.outcome_counts[outcome] = report.outcome_counts.get(outcome, 0) + 1
        if outcome not in outcomes:
            report.violations.append(
                f"request {rid}: outcome {outcome!r} outside {outcomes}"
            )
            continue
        if outcome == "rejected" and res.x is not None:
            report.violations.append(
                f"request {rid}: rejected but carries a solution (never ran?)"
            )
        if outcome == "served":
            if res.x is None:
                report.violations.append(f"request {rid}: served without a solution")
            elif not np.all(np.isfinite(res.x)):
                report.violations.append(
                    f"request {rid}: served with non-finite solution values"
                )
    for rid, n in sorted(seen.items()):
        if rid not in expected:
            report.violations.append(f"phantom result for unsubmitted request id {rid}")
        if n > 1:
            report.violations.append(
                f"request {rid} terminated {n} times (duplicate outcomes)"
            )
    lost = sorted(set(expected) - set(seen))
    for rid in lost:
        report.violations.append(f"request {rid} was admitted but never terminated (lost)")
    return report
