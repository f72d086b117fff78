"""Property tests of the tuner's two contracts.

* ``recommend()`` is a **pure function** of (features, SLA):
  the same inputs give the same choice — within a process, across
  independently re-fitted models, and across processes (the fit is
  closed-form least squares on committed JSON, so there is nothing to
  drift);
* enabling the online controller **never changes solve results
  bitwise** on a seeded serve run — the controller only re-routes work
  onto already-bit-identical paths.
"""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import (
    BatchPolicy,
    CostModel,
    SolveService,
    WorkloadSpec,
    build_matrices,
    generate_requests,
)
from repro.serve.workload import solutions_identical
from repro.tune import TuneController, default_model, extract_features
from repro.tune.shapes import bench_shape

SLAS = ("interactive", "standard", "batch")


@st.composite
def shape_names(draw):
    family = draw(st.sampled_from(("chain", "wide", "grid")))
    if family == "chain":
        return f"chain-{draw(st.integers(8, 64))}"
    if family == "wide":
        return f"wide-{draw(st.integers(2, 8))}x{draw(st.integers(2, 16))}"
    return f"grid-{draw(st.integers(4, 10))}"


@pytest.fixture(scope="module")
def model():
    return default_model()


class TestRecommendPurity:
    @settings(max_examples=20, deadline=None)
    @given(shape_names(), st.sampled_from(SLAS), st.integers(2, 64))
    def test_same_inputs_same_choice(self, model, name, sla, p):
        f = extract_features(bench_shape(name), n_threads=p)
        first = model.recommend(f, sla)
        again = model.recommend(f, sla)
        refit = default_model().recommend(f, sla)
        assert first == again == refit

    @settings(max_examples=10, deadline=None)
    @given(shape_names())
    def test_features_are_the_whole_input(self, model, name):
        """Two matrices with the same pattern get the same choice."""
        A, B = bench_shape(name), bench_shape(name)
        B.data = B.data * 3.0 - 1.0  # values differ; pattern identical
        assert model.recommend(A) == model.recommend(B)

    def test_choice_identical_across_processes(self, model, tmp_path):
        """The purity contract that matters for fleet config: a choice
        computed in a fresh interpreter matches this process bit-for-bit."""
        cases = [("chain-32", "interactive", 8),
                 ("wide-4x8", "batch", 14),
                 ("grid-8", "standard", 32)]
        here = [
            model.recommend(extract_features(bench_shape(n), n_threads=p), s).as_dict()
            for n, s, p in cases
        ]
        prog = (
            "import json, sys\n"
            "from repro.tune import default_model, extract_features\n"
            "from repro.tune.shapes import bench_shape\n"
            "model = default_model()\n"
            "cases = json.loads(sys.argv[1])\n"
            "out = [model.recommend(extract_features(bench_shape(n), n_threads=p), s)"
            ".as_dict() for n, s, p in cases]\n"
            "print(json.dumps(out))\n"
        )
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        proc = subprocess.run(
            [sys.executable, "-c", prog, json.dumps(cases)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert json.loads(proc.stdout) == here


def _run_workload(spec, tune):
    """Serve ``spec`` on the serve bench's service, optionally tuned."""
    matrices = build_matrices(spec.patterns)
    service = SolveService(
        matrices,
        n_shards=2,
        capacity=64,
        batch_policy=BatchPolicy(max_batch=16, max_wait=0.01),
        cost=CostModel(),
        controller=(
            TuneController(batch_policy=BatchPolicy(max_batch=16, max_wait=0.01))
            if tune
            else None
        ),
    )
    return service.run(generate_requests(spec, matrices))


class TestControllerBitIdentity:
    def test_tuned_serve_run_is_bitwise_identical(self):
        spec = WorkloadSpec(
            seed=5,
            n_requests=48,
            rate=700.0,
            patterns=("grid2d-8", "grid2d-10"),
            deadline_lo=0.02,
            deadline_hi=0.2,
            maxiter=60,
            shape="multi_region",
        )
        plain = _run_workload(spec, tune=False)
        tuned = _run_workload(spec, tune=True)
        tuned2 = _run_workload(spec, tune=True)
        assert solutions_identical(plain, tuned)
        assert solutions_identical(tuned, tuned2)
        assert [r.outcome for r in tuned] == [r.outcome for r in tuned2]

    def test_tuned_run_with_tight_deadlines_still_identical(self):
        spec = WorkloadSpec(
            seed=9,
            n_requests=40,
            rate=900.0,
            patterns=("grid2d-8",),
            deadline_lo=0.005,
            deadline_hi=0.05,
            maxiter=60,
        )
        plain = _run_workload(spec, tune=False)
        tuned = _run_workload(spec, tune=True)
        served_plain = [r for r in plain if r.x is not None]
        served_tuned = [r for r in tuned if r.x is not None]
        # scheduling may differ (that is the point); any request served
        # in both runs must carry the identical float sequence
        by_id = {r.request_id: r for r in served_plain}
        for r in served_tuned:
            if r.request_id in by_id:
                assert np.array_equal(r.x, by_id[r.request_id].x)
        assert solutions_identical(tuned, _run_workload(spec, tune=True))
