"""Bounded admission queue with backpressure and per-tenant round-robin.

The waiting room between arrival and batch formation.  Three concerns
live here and nowhere else:

* **Backpressure.**  The queue holds at most ``capacity`` requests; a
  full queue bounces the newcomer.  :meth:`push` says so, and the
  service terminates the bounced request with a ``rejected`` outcome —
  backpressure never silently drops work.

* **Per-tenant round-robin.**  Extraction rotates across the tenants
  waiting in a batch group, so one chatty tenant cannot monopolize a
  batch; within a tenant, higher ``priority`` goes first, ties broken
  by ``(arrival_time, request_id)``.

* **Group indexing.**  Requests are bucketed by ``batch_key`` so the
  micro-batcher (:mod:`repro.serve.batcher`) can ask "how many are
  waiting to share a batch, since when, and how urgent" in O(groups).

Deliberately lock-free: the deterministic service core is
single-threaded (JAV002 — synchronization primitives live in
``runtime/`` and ``serve/workers.py`` only); thread-safe ingestion is
:meth:`repro.serve.workers.SolveService.submit`'s job.
"""

from __future__ import annotations

import math

__all__ = ["AdmissionQueue"]


class AdmissionQueue:
    """Bounded, group-indexed, tenant-fair waiting room."""

    def __init__(self, capacity=64):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        # group key -> tenant -> list of requests (kept extraction-sorted)
        self._groups: dict = {}
        # group key -> rotating tenant offset (the round-robin cursor)
        self._cursor: dict = {}
        self._depth = 0
        self.peak_depth = 0
        self.n_admitted = 0
        self.n_displaced = 0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def push(self, req) -> bool:
        """Admit ``req``; ``False`` when the queue is full and it bounced."""
        if self._depth >= self.capacity:
            self.n_displaced += 1
            return False
        bucket = self._groups.setdefault(req.batch_key, {})
        lane = bucket.setdefault(req.tenant, [])
        lane.append(req)
        lane.sort(key=_lane_order)
        self._depth += 1
        self.n_admitted += 1
        self.peak_depth = max(self.peak_depth, self._depth)
        return True

    # ------------------------------------------------------------------
    # extraction (the micro-batcher's side)
    # ------------------------------------------------------------------
    def take(self, key, k):
        """Up to ``k`` requests of group ``key``, in fair order.

        Rotates across the group's tenants (the cursor persists across
        calls, so a group repeatedly batched keeps rotating who goes
        first); each tenant contributes its own best request — highest
        priority, then earliest arrival — per turn.
        """
        bucket = self._groups.get(key)
        if not bucket:
            return []
        out = []
        tenants = sorted(bucket)
        start = self._cursor.get(key, 0) % len(tenants)
        tenants = tenants[start:] + tenants[:start]
        turns = 0
        while len(out) < int(k):
            progressed = False
            for tenant in tenants:
                lane = bucket.get(tenant)
                if not lane:
                    continue
                out.append(lane.pop(0))
                progressed = True
                turns += 1
                if len(out) >= int(k):
                    break
            if not progressed:
                break
        for tenant in list(bucket):
            self._prune(key, tenant)
        # Advance by pops *modulo a full rotation*, not by raw pops:
        # when a take drains exactly c full cycles (turns % n == 0) the
        # raw advance would land back on `start` and the same tenant
        # would lead every batch.  A completed rotation means everyone
        # was served once, so the lead moves one step; a partial cycle
        # resumes at the first unserved tenant, as before.  The cursor
        # survives the group emptying — a group that refills and fully
        # drains every batch round must still rotate its lead.
        n = len(tenants)
        step = turns % n
        if turns and step == 0:
            step = 1
        self._cursor[key] = (start + step) % max(1, n)
        self._depth -= len(out)
        return out

    def _prune(self, key, tenant):
        bucket = self._groups.get(key)
        if bucket is None:
            return
        if tenant in bucket and not bucket[tenant]:
            del bucket[tenant]
        if not bucket:
            del self._groups[key]

    # ------------------------------------------------------------------
    # group views (read-only, for batching policy)
    # ------------------------------------------------------------------
    def group_sizes(self):
        """``{batch_key: waiting count}`` over non-empty groups."""
        return {
            key: sum(len(lane) for lane in bucket.values())
            for key, bucket in self._groups.items()
        }

    def oldest_arrival(self, key):
        """Earliest ``arrival_time`` waiting in group ``key`` (inf if empty)."""
        bucket = self._groups.get(key, {})
        times = [req.arrival_time for lane in bucket.values() for req in lane]
        return min(times) if times else math.inf

    def min_deadline(self, key):
        """Tightest deadline waiting in group ``key`` (inf if empty)."""
        bucket = self._groups.get(key, {})
        deadlines = [req.deadline for lane in bucket.values() for req in lane]
        return min(deadlines) if deadlines else math.inf

    def __len__(self):
        return self._depth

    def __bool__(self):
        return self._depth > 0


def _lane_order(req):
    return (-req.priority, req.arrival_time, req.request_id)
