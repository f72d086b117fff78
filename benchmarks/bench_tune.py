"""Autotuner gates: recommend() vs oracle, controller recovery, tracker.

The three acceptance properties of ``repro.tune`` (``docs/tuning.md``),
each measured against ground truth that does *not* come from the model:

* **grid accuracy** — ``recommend()`` replayed over every (shape, p)
  point of the committed crossover study × SLA class.  The backend
  oracle is a fresh wall-clock scalar-vs-batched trisolve on the actual
  shape; the width oracle is exhaustive enumeration of the serve cost
  model under the sync charge of the scheduler the serve rule picks
  (the one the service runs).  A configuration counts only when both
  picks are right;
* **controller recovery** — the serve bench's seeded fault workload
  (straggler shard, spin faults, dropped completions, tight deadlines)
  run untuned vs tuned: the controller must cut the deadline-miss
  rate to ≤ 20% (the committed baseline recorded 39%), beat the
  untuned run, keep bit-identical per-request solutions, and replay
  deterministically;
* **regression tracker** — ``check_regressions`` over the committed
  ``BENCH_*.json``: clean files pass, and the planted-slowdown
  self-test must be caught (the negative control, in the style of
  ``repro verify``).

Run as a script::

    PYTHONPATH=src python benchmarks/bench_tune.py           # full run,
        # records benchmarks/results/BENCH_tune.json
    PYTHONPATH=src python benchmarks/bench_tune.py --check   # CI gate:
        # exits non-zero when any of the three gates fails
"""

import json
import os
import sys

import numpy as np

from repro.core.trisolve import trisolve_factor, trisolve_factor_levels
from repro.kernels import cached_analysis
from repro.serve.workload import outcome_signature, solutions_identical, summarize
from repro.tune import SlaSpec, bench_shape, check_regressions, extract_features
from repro.tune.model import WIDTHS, default_model
from repro.tune.regress import format_report

from bench_serve import fault_workload, run_workload, workload_spec
from bench_util import RESULTS_DIR, bench_main
from bench_util import timeit_best as _timeit

#: wall-clock backend comparison tolerance (measurement noise floor)
BACKEND_REGRET = 1.3
#: per-request cost of the chosen width vs the enumerated optimum
WIDTH_REGRET = 1.05

SLA_CLASSES = ("interactive", "standard", "batch")


# ----------------------------------------------------------------------
# gate 1: static recommend() vs oracle on the bench grid
# ----------------------------------------------------------------------
def _measure_backends(name, repeats=3):
    """Wall-clock scalar vs batched trisolve on the actual shape."""
    F = bench_shape(name)
    b = np.random.default_rng(0).standard_normal(F.n_rows)
    analysis = cached_analysis(F)
    analysis.plan("lower"), analysis.plan("upper")
    t_scalar, x_s, _ = _timeit(trisolve_factor, F, b, repeats=repeats)
    t_batched, x_b, _ = _timeit(
        lambda: trisolve_factor_levels(F, b, analysis=analysis), repeats=repeats
    )
    assert np.array_equal(x_s, x_b), f"backends diverged on {name}"
    return {"scalar": t_scalar, "batched": t_batched}


def _oracle_width(model, features, sched, sla):
    """Exhaustive serve-cost enumeration under ``sched``'s sync charge."""
    c1 = model.batch_cost(features, sched, 1)
    budget = sla.budget_factor * c1
    best_k, best_per_req = 1, c1
    for k in WIDTHS:
        ck = model.batch_cost(features, sched, k)
        if ck <= budget and ck / k < best_per_req:
            best_k, best_per_req = k, ck / k
    return best_k, best_per_req


def grid_accuracy(model, sched_doc):
    """recommend() over every (shape, p) bench point × SLA class."""
    feature_cache = {}
    backend_cache = {}
    configs = []
    for pt in sched_doc["points"]:
        name, p = pt["shape"], pt["p"]
        if (name, p) not in feature_cache:
            feature_cache[name, p] = extract_features(bench_shape(name), n_threads=p)
        f = feature_cache[name, p]
        if name not in backend_cache:
            backend_cache[name] = _measure_backends(name)
        t_meas = backend_cache[name]
        for sla_class in SLA_CLASSES:
            sla = SlaSpec.from_class(sla_class)
            choice = model.recommend(f, sla)
            sched = choice.scheduler
            backend_ok = t_meas[choice.backend] <= BACKEND_REGRET * min(t_meas.values())
            ok_width, oracle_per_req = _oracle_width(model, f, sched, sla)
            chosen_batch = model.batch_cost(f, sched, choice.max_batch)
            budget = sla.budget_factor * model.batch_cost(f, sched, 1)
            width_ok = (
                chosen_batch <= budget
                and chosen_batch / choice.max_batch
                <= WIDTH_REGRET * oracle_per_req
            )
            configs.append(
                {
                    "shape": name,
                    "p": p,
                    "sla": sla_class,
                    "choice": choice.as_dict(),
                    "oracle_width": ok_width,
                    "backend_ok": bool(backend_ok),
                    "width_ok": bool(width_ok),
                    "ok": bool(backend_ok and width_ok),
                }
            )
    n_ok = sum(c["ok"] for c in configs)
    return {
        "kernel": "grid_accuracy",
        "n_configs": len(configs),
        "n_correct": n_ok,
        "accuracy": n_ok / len(configs) if configs else 0.0,
        "backend_accuracy": sum(c["backend_ok"] for c in configs) / len(configs),
        "width_accuracy": sum(c["width_ok"] for c in configs) / len(configs),
        "configs": configs,
    }


# ----------------------------------------------------------------------
# gate 2: controller recovery of the perturbed fault workload
# ----------------------------------------------------------------------
def controller_recovery():
    """The serve bench's full-mode fault workload, untuned vs tuned.

    The committed ``BENCH_serve.json`` baseline for this workload
    logged a 39% deadline-miss rate.
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
# gate 3: regression tracker on the committed bench files
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
        if e["kernel"] == "grid_accuracy":
            if e["accuracy"] < 0.80:
                failures.append(
                    f"recommend() accuracy {e['accuracy']:.0%} < 80% "
                    f"({e['n_correct']}/{e['n_configs']})"
                )
        elif e["kernel"] == "controller_recovery":
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
        if e["kernel"] == "grid_accuracy":
            print(
                f"grid_accuracy       {e['n_correct']}/{e['n_configs']} "
                f"({e['accuracy']:.0%}; backend {e['backend_accuracy']:.0%}, "
                f"width {e['width_accuracy']:.0%})"
            )
        elif e["kernel"] == "controller_recovery":
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
    """The three gates; both modes run them in full."""
    model = default_model(RESULTS_DIR)
    with open(os.path.join(RESULTS_DIR, "BENCH_sched.json")) as fh:
        sched_doc = json.load(fh)
    entries = [
        grid_accuracy(model, sched_doc),
        controller_recovery(),
        tracker_gate(),
    ]
    failures = _verify(entries)
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "note": "autotuner gates: recommend-vs-oracle grid accuracy, "
            "controller fault-workload recovery (bit-identical numerics), "
            "regression-tracker self-test",
            "model": model.to_dict(),
        },
        "entries": [
            # drop the bulky per-config details and rendered report
            # from the committed file; keep every gate number
            {k: v for k, v in e.items() if k not in ("configs", "report")}
            for e in entries
        ],
    }
    _report(entries)
    if not failures:
        print(
            "tune check: recommend>=80% tuned_miss<=20% "
            "bit_identical=True tracker=ok"
        )
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("tune", run, __doc__))
