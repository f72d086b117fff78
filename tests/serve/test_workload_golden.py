"""Golden workloads: every generated request, pinned by digest.

``generate_requests`` is a pure function of its :class:`WorkloadSpec`,
and the serve/cluster goldens, the bench gates and the end-to-end serve
workload all replay from it.  Each case hashes every request's fields
— floats written via :meth:`float.hex`, the right-hand side as its raw
bytes — into one blake2b digest, so any change to which values the
generator draws, or in which order, moves a digest.
"""

import hashlib
import os
import sys

import pytest

from repro.serve.workload import WorkloadSpec, build_matrices, generate_requests

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(REPO, "benchmarks"))

import bench_serve  # noqa: E402


def _e2e_serve_spec():
    """The end-to-end benchmark's serve workload (full size), verbatim."""
    return WorkloadSpec(
        seed=0,
        n_requests=50,
        rate=400.0,
        patterns=("grid2d-32", "grid2d-48", "grid2d-64", "convect2d-48", "circuit-2000"),
        zipf_s=1.1,
        solvers=("richardson", "gmres"),
        solver_weights=(0.8, 0.2),
        tol=1e-8,
        deadline_lo=1e6,
        deadline_hi=2e6,
    )


SPECS = {
    "bench_serve_check": lambda: bench_serve.workload_spec(True),
    "bench_serve_full": lambda: bench_serve.workload_spec(False),
    "e2e_serve": _e2e_serve_spec,
}

GOLDEN = {
    "bench_serve_check": "330666e3480000e18c17abeca56f5fa9",
    "bench_serve_full": "baa06f7518919f94b31aa288617a50e2",
    "e2e_serve": "6281da4efc1613549394a9bd9ac9b55e",
}


def _digest(reqs):
    h = hashlib.blake2b(digest_size=16)
    for r in reqs:
        fields = (
            str(r.request_id),
            repr(r.tenant),
            repr(r.matrix_key),
            repr(r.solver),
            r.tol.hex(),
            str(r.maxiter),
            str(r.priority),
            r.arrival_time.hex(),
            r.deadline.hex(),
        )
        h.update(",".join(fields).encode())
        h.update(r.b.tobytes())
        h.update(b"|")
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(SPECS))
def test_workload_requests_pinned(name):
    spec = SPECS[name]()
    reqs = generate_requests(spec, build_matrices(spec.patterns))
    assert len(reqs) == spec.n_requests
    assert _digest(reqs) == GOLDEN[name]
