"""Regression tracker: direction inference, noise floors, planted slowdowns."""

import json
import os

import pytest

from regress import (
    RESULTS_DIR,
    check_regressions,
    compare_docs,
    direction,
    flatten_bench,
    main,
    plant_slowdown,
)


DOC = {
    "meta": {"numpy": "2.0", "note": "ignored"},
    "entries": [
        {
            "kernel": "trisolve",
            "case": "grid2d-8",
            "scalar_s": 0.010,
            "batched_s": 0.002,
            "scalar_samples": [0.010, 0.011, 0.0105],
            "batched_samples": [0.002, 0.0021, 0.002],
            "speedup": 5.0,
            "exact_equal": True,
        }
    ],
    "workload": {"p50_latency": 0.02, "deadline_miss_rate": 0.1, "throughput": 900.0},
}


class TestDirection:
    @pytest.mark.parametrize(
        "key,expect",
        [
            ("entries.grid2d-8.scalar_s", "lower"),
            ("workload.p50_latency", "lower"),
            ("workload.deadline_miss_rate", "lower"),
            ("workload.throughput", "higher"),
            ("entries.grid2d-8.speedup", "higher"),
            ("points.chain.times.p2p", "lower"),
            ("entries.grid2d-8.n", None),
        ],
    )
    def test_leaf_fragments(self, key, expect):
        assert direction(key) == expect


class TestFlatten:
    def test_leaves_and_samples(self):
        leaves, samples = flatten_bench(DOC)
        assert "entries.trisolve.grid2d-8.scalar_s" in leaves
        assert "workload.throughput" in leaves
        assert "meta.numpy" not in leaves  # meta skipped
        assert samples["entries.trisolve.grid2d-8.scalar_samples"] == [0.010, 0.011, 0.0105]

    def test_bools_are_not_metrics(self):
        leaves, _ = flatten_bench(DOC)
        assert "entries.trisolve.grid2d-8.exact_equal" not in leaves

    def test_every_committed_kernel_entry_has_its_own_leaves(self):
        # several entries share a kernel (trisolve on two grids, nested
        # dissection at two scales): none may overwrite another
        with open(os.path.join(RESULTS_DIR, "BENCH_kernels.json")) as fh:
            doc = json.load(fh)
        leaves, _ = flatten_bench(doc)
        speedups = [k for k in leaves if k.startswith("entries.") and k.endswith(".speedup")]
        assert len(speedups) == len(doc["entries"])


class TestCompare:
    def test_identical_docs_pass(self):
        rep = compare_docs(DOC, DOC)
        assert rep["ok"] and not rep["regressions"]
        assert rep["compared"] > 0

    def test_planted_slowdown_caught(self):
        rep = compare_docs(DOC, plant_slowdown(DOC, factor=1.5))
        assert not rep["ok"]
        slowed = {r["key"] for r in rep["regressions"]}
        assert "entries.trisolve.grid2d-8.scalar_s" in slowed

    def test_improvements_reported_not_failed(self):
        faster = plant_slowdown(DOC, factor=0.5)  # everything *faster*
        rep = compare_docs(DOC, faster)
        assert rep["ok"]
        assert rep["improvements"]

    def test_noise_floor_widens_tolerance(self):
        noisy = json.loads(json.dumps(DOC))
        e = noisy["entries"][0]
        e["scalar_samples"] = [0.010, 0.020, 0.015]  # cv ~ 27%
        slowed = json.loads(json.dumps(noisy))
        slowed["entries"][0]["scalar_s"] = 0.013  # +30% — inside 3*cv
        rep = compare_docs(noisy, slowed)
        assert "entries.trisolve.grid2d-8.scalar_s" not in {
            r["key"] for r in rep["regressions"]
        }

    def test_disjoint_keys_reported_not_crashed(self):
        other = {"entries": [{"kernel": "des", "case": "x", "makespan": 1.0}]}
        rep = compare_docs(DOC, other)
        assert rep["only_old"] and rep["only_new"]
        assert rep["compared"] == 0


class TestCheckRegressions:
    def _write(self, d, name, doc):
        path = os.path.join(d, name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path

    def test_clean_dir_passes_with_self_test(self, tmp_path):
        self._write(str(tmp_path), "BENCH_x.json", DOC)
        rep = check_regressions(str(tmp_path))
        assert rep["ok"]
        assert rep["files"]["BENCH_x.json"]["self_test_caught"]

    def test_planted_slowdown_fails(self, tmp_path):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir(), new.mkdir()
        self._write(str(old), "BENCH_x.json", DOC)
        self._write(str(new), "BENCH_x.json", plant_slowdown(DOC, factor=2.0))
        rep = check_regressions(str(new), against_dir=str(old), self_test=False)
        assert not rep["ok"]

    def test_missing_counterpart_is_reported(self, tmp_path):
        old = tmp_path / "old"
        new = tmp_path / "new"
        old.mkdir(), new.mkdir()
        self._write(str(new), "BENCH_x.json", DOC)
        rep = check_regressions(str(new), against_dir=str(old), self_test=False)
        # nothing to compare against: not a failure, but visible
        assert "BENCH_x.json" in rep["files"]


class TestMain:
    def test_committed_results_pass_with_self_test(self, capsys):
        assert main([]) == 0
        out = capsys.readouterr().out
        n_files = len([f for f in os.listdir(RESULTS_DIR) if f.startswith("BENCH_")])
        assert n_files and out.count("self-test caught") == n_files
        assert "MISSED" not in out
        assert out.rstrip().endswith("overall: ok")

    def test_planted_slowdown_against_committed_fails(self, tmp_path, capsys):
        planted = tmp_path / "planted"
        planted.mkdir()
        for name in os.listdir(RESULTS_DIR):
            if name.startswith("BENCH_") and name.endswith(".json"):
                with open(os.path.join(RESULTS_DIR, name)) as fh:
                    doc = json.load(fh)
                with open(planted / name, "w") as fh:
                    json.dump(plant_slowdown(doc), fh)
        assert main(["--results", str(planted), "--against", RESULTS_DIR]) == 1
        out = capsys.readouterr().out
        assert "  REGRESSION " in out
        assert out.rstrip().endswith("overall: FAIL")
