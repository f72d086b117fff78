"""The shared gated-bench harness: ``bench_util.bench_main``."""

import json
import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import bench_util


@pytest.fixture
def results_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(bench_util, "RESULTS_DIR", str(tmp_path))
    return tmp_path


def _fake_run(failures):
    def run(check):
        gate = bench_util.Gates()
        for name in ("first", "second"):
            gate(name not in failures, name)
        return {"mode": "check" if check else "full"}, gate.failures

    return run


def test_check_mode_writes_nothing_and_passes(results_dir, capsys):
    assert bench_util.bench_main("fake", _fake_run(()), None, argv=["--check"]) == 0
    assert list(results_dir.iterdir()) == []
    out = capsys.readouterr().out
    assert "  [ok] first\n  [ok] second\n" in out


def test_any_failure_exits_one(results_dir, capsys):
    assert bench_util.bench_main("fake", _fake_run(("second",)), None, argv=["--check"]) == 1
    captured = capsys.readouterr()
    assert "  [FAIL] second" in captured.out
    assert "FAIL: second" in captured.err


def test_full_mode_writes_the_record(results_dir):
    assert bench_util.bench_main("fake", _fake_run(()), None, argv=[]) == 0
    with open(results_dir / "BENCH_fake.json") as fh:
        assert json.load(fh) == {"mode": "full"}
