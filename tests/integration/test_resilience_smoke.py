"""Tier-1 gate on the resilience layer: ``bench_resilience.py --check``.

Runs the benchmark script's fast mode as a subprocess — the same
command a developer uses locally — which fails when any resilience
invariant breaks: a pathological matrix the retry chain cannot rescue,
a fault-injected threaded run whose factor differs from the fault-free
one, or a watchdog that never engages under a guaranteed-stall plan.
"""

import json
import os
import subprocess
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SCRIPT = os.path.join(REPO, "benchmarks", "bench_resilience.py")
BASELINE = os.path.join(REPO, "benchmarks", "results", "BENCH_resilience.json")


def test_bench_resilience_check_passes():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src")
    proc = subprocess.run(
        [sys.executable, SCRIPT, "--check"],
        cwd=REPO,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, (
        f"bench_resilience --check failed\nstdout:\n{proc.stdout}\nstderr:\n{proc.stderr}"
    )
    assert "recovery=True bit_identical=True" in proc.stdout


def test_recorded_baseline_holds_contract():
    """The committed baseline shows every fault class handled."""
    if not os.path.exists(BASELINE):
        pytest.fail(f"baseline {BASELINE} missing — run bench_resilience.py")
    with open(BASELINE) as fh:
        record = json.load(fh)
    by_kernel = {}
    for e in record["entries"]:
        by_kernel.setdefault(e["kernel"], []).append(e)

    sweep = by_kernel["straggler_sweep"][0]
    assert sweep["monotone"]
    assert sweep["points"][-1]["degradation"] > 1.5  # an 8x straggler hurts

    for c in by_kernel["breakdown_recovery"][0]["cases"]:
        assert c["final_variant"] is not None, f"{c['case']} unrescued"
        assert c["apply_finite"], f"{c['case']} non-finite apply"

    overhead = by_kernel["retry_overhead"][0]
    assert overhead["final_variant"] == "primary"
    assert overhead["n_attempts"] == 1  # healthy matrix: no retries
    assert overhead["overhead"] < 3.0  # happy path costs a probe, not a chain

    for wd in by_kernel["runtime_watchdog"]:
        assert wd["bit_identical"]
        assert wd["watchdog_engaged"]
        assert wd["n_fallback_rows"] > 0
    # one of them stalls a two-stage run with Even-Rows lower rows
    assert any(wd.get("lower_rows", 0) > 0 for wd in by_kernel["runtime_watchdog"])
