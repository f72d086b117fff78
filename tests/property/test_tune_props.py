"""Property tests of the controller's contract: enabling it **never
changes solve results bitwise** on a seeded serve run — the controller
only re-routes work onto already-bit-identical paths.
"""

import numpy as np

from repro.serve import (
    BatchPolicy,
    CostModel,
    SolveService,
    WorkloadSpec,
    build_matrices,
    generate_requests,
)
from repro.serve.workload import solutions_identical
from repro.tune import TuneController


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
