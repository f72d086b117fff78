"""Noise-aware performance-regression tracking over committed bench files.

``benchmarks/results/BENCH_*.json`` are the repo's performance ledger;
this module diffs two snapshots of that ledger and flags *unexplained*
slowdowns: a metric moved in its bad direction by more than the larger
of a base relative tolerance and a multiple of its own measured noise.

Direction is inferred from the key (timings and miss rates are
lower-better; speedups and hit rates higher-better; everything else —
counts, sizes, configuration echoes — is ignored rather than guessed).
Noise comes from the per-repeat sample arrays ``timeit_best`` now
records alongside each best-of timing: a leaf ``foo_s`` with a sibling
``foo_samples`` gets its tolerance widened to ``noise_mult`` times the
samples' coefficient of variation, so a jittery microbenchmark cannot
fail CI on a rerun while a genuine 2× slowdown still does.

In the style of ``repro verify``, the checker carries its own negative
control: :func:`plant_slowdown` corrupts a snapshot's lower-better
leaves, and the self-test gate asserts the checker *fails* on the
planted copy — a tracker that cannot catch a planted regression is not
tracking anything.

Run as a script (it needs only numpy)::

    python benchmarks/regress.py                      # each committed file
        # against itself: parse check + planted-slowdown self-test
    python benchmarks/regress.py --results new/ --against benchmarks/results
        # a fresh run against the committed baseline

It exits non-zero on a regression or on a missed planted slowdown.
"""

from __future__ import annotations

import argparse
import copy
import glob
import json
import math
import os

import numpy as np

__all__ = [
    "flatten_bench",
    "direction",
    "compare_docs",
    "check_regressions",
    "plant_slowdown",
    "format_report",
    "main",
]

#: the committed bench results, the default candidate directory
RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "results")

#: key fragments that mark a metric as lower-better (timings, misses)
_LOWER = (
    "_s",
    "time",
    "latency",
    "miss_rate",
    "p50",
    "p90",
    "p99",
    "makespan",
    "wait",
    "overhead",
)
#: key fragments that mark a metric as higher-better (rates of goodness)
_HIGHER = (
    "speedup",
    "throughput",
    "goodput",
    "served_fraction",
    "hit_rate",
    "accuracy",
    "gflops",
)


def direction(key):
    """``"lower"`` / ``"higher"`` / ``None`` (no performance meaning)."""
    parts = key.split(".")
    leaf = parts[-1]
    for frag in _HIGHER:
        if frag in leaf:
            return "higher"
    for frag in _LOWER:
        if leaf.endswith("_s") if frag == "_s" else frag in leaf:
            return "lower"
    # scheduler-crossover style: leaves under a "times" node are
    # seconds keyed by scheduler name
    if "times" in parts[:-1]:
        return "lower"
    return None


def flatten_bench(doc, prefix=""):
    """Flatten a bench document to dotted numeric leaves + sample arrays.

    Returns ``(leaves, samples)``: ``leaves`` maps dotted keys to
    floats; ``samples`` maps dotted keys of per-repeat arrays (keys
    ending in ``_samples``) to float lists.  ``meta`` blocks are
    skipped — toolchain versions are not performance.  Lists of dicts
    (bench entries) are indexed by every identifying field they carry
    (say ``kernel.case``), so reordered entries still line up and entries
    that share one field (a kernel timed on two cases) stay apart.
    """
    leaves: dict = {}
    samples: dict = {}

    def ident(item, i):
        tags = [item[k] for k in ("name", "shape", "kernel", "case", "workload", "key")
                if isinstance(item.get(k), str)]
        if not tags:
            return str(i)
        tags += [item[k] for k in ("machine", "p", "width") if item.get(k) is not None]
        return ".".join(str(t) for t in tags)

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "meta" and not path:
                    continue
                walk(v, f"{path}.{k}" if path else str(k))
        elif isinstance(node, (list, tuple)):
            if node and all(isinstance(x, (int, float)) for x in node):
                if path.endswith("_samples"):
                    samples[path] = [float(x) for x in node]
                return  # other numeric arrays (histograms etc.): not metrics
            for i, item in enumerate(node):
                sub = ident(item, i) if isinstance(item, dict) else str(i)
                walk(item, f"{path}.{sub}" if path else sub)
        elif isinstance(node, bool):
            return
        elif isinstance(node, (int, float)):
            if math.isfinite(float(node)):
                leaves[path] = float(node)

    walk(doc, prefix)
    return leaves, samples


def _noise_cv(key, samples):
    """Coefficient of variation of the leaf's sibling sample array."""
    if key.endswith("_s"):
        sib = key[: -len("_s")] + "_samples"
        arr = samples.get(sib)
        if arr and len(arr) >= 2:
            a = np.asarray(arr, dtype=np.float64)
            mean = float(a.mean())
            if mean > 0:
                return float(a.std()) / mean
    return 0.0


def compare_docs(old_doc, new_doc, *, base_rel_tol=0.15, noise_mult=3.0):
    """Diff two bench documents; returns a structured report dict.

    A *regression* is a directed metric that moved in its bad direction
    by more than ``max(base_rel_tol, noise_mult × cv)`` relative to the
    old value; symmetric movement in the good direction is reported as
    an improvement.  Undirected leaves and keys present on only one
    side are counted but never fail the check — schema growth is not a
    slowdown.
    """
    old, old_samples = flatten_bench(old_doc)
    new, new_samples = flatten_bench(new_doc)
    regressions, improvements = [], []
    compared = 0
    for key in sorted(set(old) & set(new)):
        d = direction(key)
        if d is None:
            continue
        a, b = old[key], new[key]
        if a == 0.0:
            continue
        compared += 1
        cv = max(_noise_cv(key, old_samples), _noise_cv(key, new_samples))
        tol = max(base_rel_tol, noise_mult * cv)
        delta = (b - a) / abs(a)
        bad = delta if d == "lower" else -delta
        record = {
            "key": key,
            "old": a,
            "new": b,
            "rel_change": delta,
            "tolerance": tol,
            "direction": d,
        }
        if bad > tol:
            regressions.append(record)
        elif -bad > tol:
            improvements.append(record)
    return {
        "ok": not regressions,
        "compared": compared,
        "regressions": regressions,
        "improvements": improvements,
        "only_old": sorted(set(old) - set(new)),
        "only_new": sorted(set(new) - set(old)),
    }


def plant_slowdown(doc, *, factor=1.5):
    """Negative control: a copy with every lower-better leaf slowed ``factor``×.

    Walks the same structure :func:`flatten_bench` reads, so whatever
    the checker would compare is exactly what gets corrupted.
    """

    def walk(node, path):
        if isinstance(node, dict):
            for k, v in node.items():
                if k == "meta" and not path:
                    continue
                sub = f"{path}.{k}" if path else str(k)
                if (
                    isinstance(v, (int, float))
                    and not isinstance(v, bool)
                    and direction(sub) == "lower"
                ):
                    node[k] = float(v) * factor
                else:
                    walk(v, sub)
        elif isinstance(node, (list, tuple)):
            for item in node:
                walk(item, path)

    planted = copy.deepcopy(doc)
    walk(planted, "")
    return planted


def check_regressions(
    results_dir,
    against_dir=None,
    *,
    base_rel_tol=0.15,
    noise_mult=3.0,
    self_test=True,
):
    """Check every ``BENCH_*.json`` under ``results_dir``.

    With ``against_dir`` the files there are the *old* baseline and
    ``results_dir`` the candidate; without it each committed file is
    compared against itself (a schema/parse validation that must pass
    trivially).  ``self_test`` additionally plants a slowdown into each
    baseline and asserts the checker catches it — the run fails if the
    planted regression goes undetected.
    """
    paths = sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json")))
    if not paths:
        raise FileNotFoundError(f"no BENCH_*.json under {results_dir}")
    files = {}
    ok = True
    for path in paths:
        name = os.path.basename(path)
        with open(path) as fh:
            new_doc = json.load(fh)
        if against_dir is not None:
            old_path = os.path.join(against_dir, name)
            if not os.path.exists(old_path):
                files[name] = {"ok": True, "skipped": "no baseline"}
                continue
            with open(old_path) as fh:
                old_doc = json.load(fh)
        else:
            old_doc = new_doc
        report = compare_docs(
            old_doc, new_doc, base_rel_tol=base_rel_tol, noise_mult=noise_mult
        )
        if self_test:
            planted = plant_slowdown(old_doc, factor=1.0 + 2.0 * base_rel_tol + 0.5)
            control = compare_docs(
                old_doc, planted, base_rel_tol=base_rel_tol, noise_mult=noise_mult
            )
            report["self_test_caught"] = bool(control["regressions"])
            if report["compared"] and not report["self_test_caught"]:
                report["ok"] = False
        files[name] = report
        ok = ok and report["ok"]
    return {"ok": ok, "files": files}


def format_report(report):
    """Human-readable summary of a :func:`check_regressions` report."""
    lines = []
    for name, rep in report["files"].items():
        if "skipped" in rep:
            lines.append(f"{name}: skipped ({rep['skipped']})")
            continue
        status = "ok" if rep["ok"] else "FAIL"
        extra = ""
        if "self_test_caught" in rep:
            extra = ", self-test " + (
                "caught" if rep["self_test_caught"] else "MISSED"
            )
        lines.append(
            f"{name}: {status} — {rep['compared']} metrics compared, "
            f"{len(rep['regressions'])} regressions, "
            f"{len(rep['improvements'])} improvements{extra}"
        )
        for r in rep["regressions"]:
            lines.append(
                f"  REGRESSION {r['key']}: {r['old']:.4g} -> {r['new']:.4g} "
                f"({r['rel_change']:+.1%}, tol {r['tolerance']:.0%})"
            )
    lines.append("overall: " + ("ok" if report["ok"] else "FAIL"))
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="noise-aware diff of BENCH_*.json snapshots, with a "
        "planted-slowdown self-test"
    )
    parser.add_argument(
        "--results", default=RESULTS_DIR, help="candidate results dir (default: committed)"
    )
    parser.add_argument(
        "--against", default=None, help="baseline results dir (default: each file itself)"
    )
    args = parser.parse_args(argv)
    report = check_regressions(args.results, args.against)
    print(format_report(report))
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
