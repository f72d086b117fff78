"""AdmissionQueue: backpressure, tenant round-robin, group views."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.serve import AdmissionQueue, SolveRequest


def _req(rid, tenant="t0", key="m", arrival=None, priority=0, deadline=math.inf):
    return SolveRequest(
        request_id=rid,
        tenant=tenant,
        matrix_key=key,
        b=np.ones(3),
        arrival_time=float(rid) if arrival is None else arrival,
        priority=priority,
        deadline=deadline,
    )


class TestAdmission:
    def test_push_within_capacity_admits(self):
        q = AdmissionQueue(capacity=2)
        assert q.push(_req(0)) is True
        assert q.push(_req(1)) is True
        assert len(q) == 2

    def test_reject_policy_bounces_newcomer(self):
        q = AdmissionQueue(capacity=2)
        old, mid = _req(0, key="ma"), _req(1, key="mb")
        q.push(old), q.push(mid)
        newcomer = _req(2, key="mb")
        assert q.push(newcomer) is False
        assert len(q) == 2
        assert q.n_displaced == 1
        # the waiting requests stay, whatever group the newcomer joins
        assert q.take(old.batch_key, 5) == [old]
        assert q.take(mid.batch_key, 5) == [mid]

    def test_invalid_args(self):
        with pytest.raises(ValueError, match="capacity"):
            AdmissionQueue(capacity=0)

    def test_peak_depth_tracks_high_water(self):
        q = AdmissionQueue(capacity=8)
        for i in range(5):
            q.push(_req(i))
        q.take(_req(0).batch_key, 5)
        assert len(q) == 0
        assert q.peak_depth == 5


class TestFairness:
    def test_round_robin_across_tenants(self):
        q = AdmissionQueue(capacity=16)
        # tenant a floods, tenant b sends one
        for i in range(5):
            q.push(_req(i, tenant="a"))
        q.push(_req(10, tenant="b"))
        got = q.take(_req(0).batch_key, 2)
        tenants = {r.tenant for r in got}
        assert tenants == {"a", "b"}  # b is not starved by a's flood

    def test_priority_orders_within_tenant(self):
        q = AdmissionQueue(capacity=8)
        low = _req(0, priority=0)
        high = _req(1, priority=2)
        q.push(low), q.push(high)
        got = q.take(low.batch_key, 1)
        assert got == [high]

    def test_cursor_rotates_between_takes(self):
        q = AdmissionQueue(capacity=32)
        key = _req(0).batch_key
        for i in range(4):
            q.push(_req(i, tenant="a"))
            q.push(_req(10 + i, tenant="b"))
        first = q.take(key, 1)[0].tenant
        second = q.take(key, 1)[0].tenant
        assert {first, second} == {"a", "b"}  # leadership rotated

    def test_take_drains_in_arrival_order_single_tenant(self):
        q = AdmissionQueue(capacity=8)
        reqs = [_req(i) for i in (3, 1, 2)]
        for r in reqs:
            q.push(r)
        got = q.take(reqs[0].batch_key, 3)
        assert [r.request_id for r in got] == [1, 2, 3]

    def test_cursor_rotates_when_take_is_multiple_of_tenant_count(self):
        # regression: with k % n_tenants == 0 the cursor used to advance
        # by a whole number of rotations and land back on `start`, so
        # the same tenant led every batch
        q = AdmissionQueue(capacity=64)
        key = _req(0).batch_key
        rid = 0
        leads = []
        for _ in range(3):
            for t in ("a", "b", "c"):
                for _ in range(2):
                    q.push(_req(rid, tenant=t))
                    rid += 1
            leads.append(q.take(key, 6)[0].tenant)  # 6 % 3 == 0
        assert leads == ["a", "b", "c"]

    def test_cursor_rotates_without_draining_group(self):
        # same bug, non-draining shape: each tenant keeps a backlog
        q = AdmissionQueue(capacity=64)
        key = _req(0).batch_key
        rid = 0
        for t in ("a", "b", "c"):
            for _ in range(3):
                q.push(_req(rid, tenant=t))
                rid += 1
        assert q.take(key, 3)[0].tenant != q.take(key, 3)[0].tenant

    def test_partial_cycle_resumes_at_unserved_tenant(self):
        # the fix must not break the good case: a take that stops
        # mid-rotation resumes at the first tenant it did not serve
        q = AdmissionQueue(capacity=64)
        key = _req(0).batch_key
        for i, t in enumerate(("a", "b", "c")):
            q.push(_req(i, tenant=t))
        assert [r.tenant for r in q.take(key, 2)] == ["a", "b"]
        for i, t in enumerate(("a", "b")):
            q.push(_req(10 + i, tenant=t))
        assert q.take(key, 3)[0].tenant == "c"

    @settings(max_examples=60, deadline=None)
    @given(
        n_tenants=st.integers(2, 5),
        k=st.integers(1, 12),
        rounds=st.integers(2, 6),
    )
    def test_lead_tenant_rotates_over_repeated_takes(self, n_tenants, k, rounds):
        # property: while every tenant keeps a backlog, the lead of each
        # take advances by k positions (mod n) — or by exactly one when
        # k is a whole number of rotations — so consecutive takes that
        # serve at least one full rotation never repeat a lead
        q = AdmissionQueue(capacity=4096)
        key = _req(0).batch_key
        tenants = [f"t{i}" for i in range(n_tenants)]
        rid = 0
        for t in tenants:
            for _ in range(rounds * k):  # deep lanes: nobody empties
                q.push(_req(rid, tenant=t))
                rid += 1
        leads = [q.take(key, k)[0].tenant for _ in range(rounds)]
        step = k % n_tenants or 1
        expected = [tenants[(i * step) % n_tenants] for i in range(rounds)]
        assert leads == expected
        if k >= n_tenants:
            # a full rotation per take -> the lead always moves
            for a, b in zip(leads, leads[1:]):
                assert a != b


class TestGroupViews:
    def test_group_sizes_and_times(self):
        q = AdmissionQueue(capacity=16)
        q.push(_req(0, key="ma", arrival=1.0, deadline=9.0))
        q.push(_req(1, key="ma", arrival=2.0, deadline=5.0))
        q.push(_req(2, key="mb", arrival=0.5))
        ka = _req(0, key="ma").batch_key
        kb = _req(0, key="mb").batch_key
        assert q.group_sizes() == {ka: 2, kb: 1}
        assert q.oldest_arrival(ka) == 1.0
        assert q.min_deadline(ka) == 5.0
        assert q.min_deadline(("nope", "richardson", 1e-8, 200)) == math.inf

    def test_take_prunes_empty_groups(self):
        q = AdmissionQueue(capacity=8)
        r = _req(0)
        q.push(r)
        q.take(r.batch_key, 1)
        assert q.group_sizes() == {}
        assert not q
