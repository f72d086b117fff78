"""Workload generation: seeded Poisson replay and spec validation."""

import dataclasses
import math

import numpy as np
import pytest

from repro.serve.workload import WorkloadSpec, build_matrices, generate_requests

SPEC = WorkloadSpec(
    seed=3,
    n_requests=120,
    rate=800.0,
    patterns=("grid2d-8", "grid2d-10", "grid2d-12"),
)


class TestPoisson:
    def test_replay_deterministic(self):
        matrices = build_matrices(SPEC.patterns)
        a = generate_requests(SPEC, matrices)
        b = generate_requests(SPEC, matrices)
        assert [(r.arrival_time, r.tenant, r.matrix_key) for r in a] == [
            (r.arrival_time, r.tenant, r.matrix_key) for r in b
        ]
        assert all(np.array_equal(x.b, y.b) for x, y in zip(a, b))


class TestValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("rate", math.nan),
            ("rate", 0.0),
            ("n_tenants", 0),
            ("deadline_lo", 1.0),  # above deadline_hi = 0.5
            ("deadline_hi", math.nan),
        ],
    )
    def test_bad_inputs_name_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            dataclasses.replace(SPEC, **{field: value})
