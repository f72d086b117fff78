"""Tuning gates: controller recovery and the regression tracker.

The two acceptance properties of ``repro.tune`` and the bench tooling
next to it (``docs/tuning.md``):

* **controller recovery** — the serve bench's seeded fault workload
  (straggler shard, spin faults, dropped completions, tight deadlines)
  run untuned vs tuned: the controller must keep the deadline-miss
  rate at ≤ 20% (the untuned run already meets it: the committed
  baseline records 12.5%), beat the untuned run, keep bit-identical
  per-request solutions, and replay deterministically;
* **regression tracker** — ``check_regressions`` over the committed
  ``BENCH_*.json``: clean files pass, and the planted-slowdown
  self-test must be caught (the negative control, in the style of
  ``repro verify``).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_tune.py           # full run,
        # records benchmarks/results/BENCH_tune.json
    PYTHONPATH=src python benchmarks/bench_tune.py --check   # CI gate:
        # exits non-zero when either gate fails
"""

import json
import os
import sys

import numpy as np

from repro.serve.workload import outcome_signature, solutions_identical, summarize

from bench_serve import fault_workload, run_workload, workload_spec
from bench_util import RESULTS_DIR, bench_main
from regress import check_regressions, format_report


# ----------------------------------------------------------------------
# gate 1: controller recovery of the perturbed fault workload
# ----------------------------------------------------------------------
def controller_recovery():
    """The serve bench's full-mode fault workload, untuned vs tuned.

    The committed ``BENCH_serve.json`` baseline for this workload
    records a 12.5% deadline-miss rate untuned.
    """
    fault_spec, plan = fault_workload(workload_spec(check=False))
    _, base = run_workload(fault_spec, fault_plan=plan, tune=False)
    service, tuned = run_workload(fault_spec, fault_plan=plan, tune=True)
    _, tuned2 = run_workload(fault_spec, fault_plan=plan, tune=True)

    recorded = None
    serve_path = os.path.join(RESULTS_DIR, "BENCH_serve.json")
    if os.path.exists(serve_path):
        with open(serve_path) as fh:
            recorded = (
                json.load(fh).get("fault_workload", {}).get("deadline_miss_rate")
            )

    base_sum, tuned_sum = summarize(base), summarize(tuned)
    ctl = service.controller
    return {
        "kernel": "controller_recovery",
        "recorded_miss_rate": recorded,
        "untuned_miss_rate": base_sum["deadline_miss_rate"],
        "tuned_miss_rate": tuned_sum["deadline_miss_rate"],
        "untuned_served_fraction": base_sum["served_fraction"],
        "tuned_served_fraction": tuned_sum["served_fraction"],
        "bit_identical": solutions_identical(base, tuned),
        "replay_identical": outcome_signature(tuned) == outcome_signature(tuned2)
        and solutions_identical(tuned, tuned2),
        "n_decisions": len(ctl.decisions),
        "decisions": list(ctl.decisions),
        "tune_metrics": ctl.metrics(),
    }


# ----------------------------------------------------------------------
# gate 2: regression tracker on the committed bench files
# ----------------------------------------------------------------------
def tracker_gate():
    rep = check_regressions(RESULTS_DIR, self_test=True)
    return {
        "kernel": "regression_tracker",
        "ok": rep["ok"],
        "n_files": len(rep["files"]),
        "n_compared": sum(f["compared"] for f in rep["files"].values()),
        "self_test_caught": all(
            f.get("self_test_caught", True) for f in rep["files"].values()
        ),
        "report": format_report(rep),
    }


# ----------------------------------------------------------------------
# verify + report
# ----------------------------------------------------------------------
def _verify(entries):
    """The gates both modes assert.  Returns a list of failures."""
    failures = []
    for e in entries:
        if e["kernel"] == "controller_recovery":
            if e["tuned_miss_rate"] > 0.20:
                failures.append(
                    f"tuned deadline-miss rate {e['tuned_miss_rate']:.1%} > 20%"
                )
            if e["tuned_miss_rate"] >= e["untuned_miss_rate"]:
                failures.append("controller did not improve the miss rate")
            if not e["bit_identical"]:
                failures.append("tuning changed the solve results bitwise")
            if not e["replay_identical"]:
                failures.append("tuned run does not replay deterministically")
        elif e["kernel"] == "regression_tracker":
            if not e["ok"]:
                failures.append("check-regressions failed on committed files")
            if not e["self_test_caught"]:
                failures.append("planted slowdown was NOT caught (self-test)")
    return failures


def _report(entries):
    for e in entries:
        if e["kernel"] == "controller_recovery":
            rec = e["recorded_miss_rate"]
            print(
                f"controller_recovery recorded "
                f"{'n/a' if rec is None else f'{rec:.1%}'} -> untuned "
                f"{e['untuned_miss_rate']:.1%} -> tuned {e['tuned_miss_rate']:.1%} "
                f"(bit_identical={e['bit_identical']}, "
                f"decisions={e['n_decisions']})"
            )
        elif e["kernel"] == "regression_tracker":
            print(
                f"regression_tracker  ok={e['ok']} "
                f"({e['n_compared']} metrics across {e['n_files']} files, "
                f"planted slowdown caught={e['self_test_caught']})"
            )


def run(check):
    """The two gates; both modes run them in full."""
    entries = [controller_recovery(), tracker_gate()]
    failures = _verify(entries)
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "note": "tuning gates: controller fault-workload recovery "
            "(bit-identical numerics), regression-tracker self-test",
        },
        "entries": [
            # drop the rendered report from the committed file; keep
            # every gate number
            {k: v for k, v in e.items() if k != "report"}
            for e in entries
        ],
    }
    _report(entries)
    if not failures:
        print(
            "tune check: tuned_miss<=20% bit_identical=True tracker=ok"
        )
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("tune", run, __doc__))
