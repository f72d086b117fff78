"""Tests of the benchmark itself, on tiny inputs.

Run from the repository root::

    python3 -m pytest -q e2ebench/test_e2ebench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT_DIR = BENCH_DIR.parent
CONTRACT = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in CONTRACT["workloads"]]


@lru_cache(maxsize=None)
def bench(workload, seed, trace, out):
    """One tiny run: (exit code, last stdout line as JSON, result record)."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace),
         "--size", "tiny", "--out", out],
        capture_output=True, text=True, timeout=300, cwd=ROOT_DIR,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((Path(out) / f"{workload}-seed{seed}-trace{trace}.json").read_text())
    return last, record


@pytest.fixture(scope="module")
def out(tmp_path_factory):
    return str(tmp_path_factory.mktemp("e2ebench"))


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_present_with_unit_and_no_failures(workload, trace, out):
    last, _ = bench(workload, 1, trace, out)
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    declared = CONTRACT["per_layer" if trace else "end_to_end"]
    assert set(last["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert last["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(last["metrics"][m["name"]]["value"], (int, float))
    assert last["correct"] is True
    assert last["attempted"] >= 1
    assert last["failed"] == 0  # fail_frac == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_digests_repeat_across_invocations(workload, out, tmp_path):
    _, first = bench(workload, 1, 0, out)
    _, again = bench(workload, 1, 0, str(tmp_path))
    assert first["digests"] == again["digests"]
    assert first["structure"] == again["structure"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_moves_no_bits(workload, out):
    _, plain = bench(workload, 1, 0, out)
    _, traced = bench(workload, 1, 1, out)
    assert plain["digests"] == traced["digests"]
    assert traced["checks"]["span_coverage"] is True
    assert traced["metrics"]["trace.coverage_min"]["value"] >= 0.95


@pytest.mark.parametrize("workload", WORKLOADS)
def test_seed_changes_inputs_not_metric_names(workload, out):
    last1, rec1 = bench(workload, 1, 0, out)
    last2, rec2 = bench(workload, 2, 0, out)
    assert rec1["digests"]["inputs"] != rec2["digests"]["inputs"]
    assert rec1["digests"]["outputs"] != rec2["digests"]["outputs"]
    assert set(last1["metrics"]) == set(last2["metrics"])


def test_records_machine_context(out):
    _, rec = bench("oneshot", 1, 0, out)
    assert {"nproc", "python", "numpy"} <= set(rec["machine"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT_DIR / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload", "oneshot", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
