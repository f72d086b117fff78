"""Property-based tests of the serving layer's exactness contracts.

Two properties carry the whole design:

* the multi-RHS sweeps are **column-separable** — any block of
  right-hand sides, solved batched, equals each column solved alone,
  bitwise;
* therefore the blocked Richardson service path gives every request
  the same float sequence it would have gotten in a solo run —
  batching is scheduling, not numerics — and the admission queue
  conserves requests under any interleaving of pushes and takes.
"""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.iluk import ilu0_factor
from repro.kernels.trisolve import factor_solver, trisolve_factor
from repro.matrices import grid2d
from repro.resilience import ResilientFactor
from repro.serve import AdmissionQueue, SolveRequest
from repro.serve.factor_cache import FactorEntry
from repro.serve.workers import blocked_richardson
from repro.sparse import from_dense


@st.composite
def dominant_dense(draw, max_n=16):
    n = draw(st.integers(4, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    D = rng.standard_normal((n, n))
    D[rng.random((n, n)) > 0.35] = 0.0
    np.fill_diagonal(D, np.abs(D).sum(axis=1) + 1.0)
    return D


@settings(max_examples=25, deadline=None)
@given(dominant_dense(), st.integers(1, 6), st.integers(0, 2**31 - 1))
def test_multi_rhs_trisolve_column_separable(D, k, seed):
    F = ilu0_factor(from_dense(D))
    B = np.random.default_rng(seed).standard_normal((F.n_rows, k))
    X = factor_solver(F)(B)
    for j in range(k):
        assert np.array_equal(X[:, j], trisolve_factor(F, B[:, j]))


def _entry(A):
    rf = ResilientFactor().setup(A)
    return FactorEntry(
        fingerprint="t",
        factor=rf,
        apply_multi=rf.build_multi_solver(),
        variant=rf.report.final_variant,
        n_levels=1,
        nnz=int(A.nnz),
    )


@settings(max_examples=10, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2**31 - 1))
def test_blocked_richardson_batched_equals_sequential(k, seed):
    A = grid2d(8)
    B = np.random.default_rng(seed).standard_normal((A.n_rows, k))
    batched = blocked_richardson(A, _entry(A), B, 1e-10, 60)
    for j in range(k):
        solo = blocked_richardson(A, _entry(A), B[:, j : j + 1], 1e-10, 60)
        assert np.array_equal(batched["X"][:, j], solo["X"][:, 0])
        assert batched["iterations"][j] == solo["iterations"][0]
        assert batched["residual"][j] == solo["residual"][0]
        assert batched["converged"][j] == solo["converged"][0]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["a", "b"]),  # tenant
            st.integers(0, 2),  # priority
            st.integers(0, 1),  # matrix key index
        ),
        min_size=1,
        max_size=20,
    ),
    st.integers(1, 8),  # capacity
    st.sampled_from(["reject", "shed_oldest"]),
    st.data(),
)
def test_queue_conserves_requests(specs, capacity, policy, data):
    q = AdmissionQueue(capacity=capacity, policy=policy)
    displaced, taken = [], []
    keys = ("m0", "m1")
    for i, (tenant, priority, ki) in enumerate(specs):
        displaced += q.push(
            SolveRequest(
                request_id=i,
                tenant=tenant,
                matrix_key=keys[ki],
                b=np.ones(2),
                priority=priority,
                arrival_time=float(i),
            )
        )
        if data.draw(st.booleans()):
            key = (keys[data.draw(st.integers(0, 1))], "richardson", 1e-8, 200)
            taken += q.take(key, data.draw(st.integers(1, 4)))
    # conservation: every pushed request is waiting, taken, or displaced
    assert len(taken) + len(displaced) + len(q) == len(specs)
    assert len(q) <= capacity
    ids = [r.request_id for r in taken + displaced]
    assert len(ids) == len(set(ids))  # nobody terminated twice
    remaining = sum(q.group_sizes().values())
    assert remaining == len(q)
    assert q.oldest_arrival(("m0", "richardson", 1e-8, 200)) >= 0 or math.isinf(
        q.oldest_arrival(("m0", "richardson", 1e-8, 200))
    )
