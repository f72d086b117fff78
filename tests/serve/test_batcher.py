"""MicroBatcher: close on max-size, max-wait, deadline pressure."""

import math

import numpy as np
import pytest

from repro.serve import AdmissionQueue, BatchPolicy, MicroBatcher, SolveRequest


def _req(rid, *, key="m", solver="richardson", arrival=0.0, deadline=math.inf):
    return SolveRequest(
        request_id=rid,
        tenant="t0",
        matrix_key=key,
        b=np.ones(3),
        solver=solver,
        arrival_time=arrival,
        deadline=deadline,
    )


def _flat_cost(key, size):
    return 0.001


class TestCloseRules:
    def test_waits_while_below_size_and_young(self):
        q = AdmissionQueue()
        q.push(_req(0, arrival=0.0))
        mb = MicroBatcher(BatchPolicy(max_batch=4, max_wait=0.5))
        assert mb.pop_ready(q, now=0.1, est_cost=_flat_cost) == []
        assert mb.next_close_time(q, _flat_cost) == pytest.approx(0.5)

    def test_max_wait_closes_partial_batch(self):
        q = AdmissionQueue()
        q.push(_req(0, arrival=0.0))
        q.push(_req(1, arrival=0.2))
        mb = MicroBatcher(BatchPolicy(max_batch=4, max_wait=0.5))
        batches = mb.pop_ready(q, now=0.5, est_cost=_flat_cost)
        assert len(batches) == 1
        assert batches[0].size == 2  # the oldest aged out; both ride along

    def test_max_size_closes_immediately(self):
        q = AdmissionQueue()
        for i in range(5):
            q.push(_req(i, arrival=1.0))
        mb = MicroBatcher(BatchPolicy(max_batch=4, max_wait=100.0))
        batches = mb.pop_ready(q, now=1.0, est_cost=_flat_cost)
        # a full batch of 4 closes at once; the remainder keeps waiting
        assert [b.size for b in batches] == [4]
        assert len(q) == 1

    def test_deadline_pressure_closes_early(self):
        q = AdmissionQueue()
        q.push(_req(0, arrival=0.0, deadline=0.3))
        mb = MicroBatcher(BatchPolicy(max_batch=8, max_wait=10.0))
        est = lambda key, size: 0.1  # noqa: E731
        # must dispatch by deadline - est = 0.2, well before max_wait
        assert mb.next_close_time(q, est) == pytest.approx(0.2)
        assert mb.pop_ready(q, now=0.2, est_cost=est)[0].size == 1

    def test_non_batchable_solver_dispatches_immediately(self):
        q = AdmissionQueue()
        q.push(_req(0, solver="gmres", arrival=2.0))
        mb = MicroBatcher(BatchPolicy(max_batch=8, max_wait=10.0))
        assert mb.next_close_time(q, _flat_cost) == pytest.approx(2.0)
        batches = mb.pop_ready(q, now=2.0, est_cost=_flat_cost)
        assert [b.size for b in batches] == [1]

    def test_keys_filter_restricts_groups(self):
        q = AdmissionQueue()
        a, b = _req(0, key="ma", arrival=0.0), _req(1, key="mb", arrival=0.0)
        q.push(a), q.push(b)
        mb = MicroBatcher(BatchPolicy(max_batch=1))
        batches = mb.pop_ready(q, now=0.0, est_cost=_flat_cost, keys={a.batch_key})
        assert [bt.matrix_key for bt in batches] == ["ma"]
        assert len(q) == 1  # mb's group untouched

    def test_batch_counter(self):
        q = AdmissionQueue()
        for i in range(3):
            q.push(_req(i))
        mb = MicroBatcher(BatchPolicy(max_batch=1))
        mb.pop_ready(q, now=0.0, est_cost=_flat_cost)
        assert mb.n_batches == 3


class TestPolicyValidation:
    def test_bad_policy_values(self):
        with pytest.raises(ValueError, match="max_batch"):
            BatchPolicy(max_batch=0)
        with pytest.raises(ValueError, match="max_wait"):
            BatchPolicy(max_wait=-1.0)

    def test_batch_views(self):
        q = AdmissionQueue()
        q.push(_req(7, key="mx"))
        mb = MicroBatcher(BatchPolicy(max_batch=1))
        (batch,) = mb.pop_ready(q, now=0.0, est_cost=_flat_cost)
        assert batch.matrix_key == "mx"
        assert batch.solver == "richardson"
        assert batch.size == 1
