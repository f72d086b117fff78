"""Micro-batching: coalesce compatible requests into multi-RHS solves.

The Javelin premise is that setup is amortized across many triangular
solves; the batcher amortizes the *per-solve* overhead too.  Requests
whose :attr:`~repro.serve.request.SolveRequest.batch_key` matches —
same matrix, solver, tolerance, iteration cap — are gathered into one
``(n, k)`` right-hand-side block and swept through the multi-RHS
trisolve kernels (``repro/kernels/trisolve.py``), which pay the
per-level dispatch cost once per level instead of once per level per
request.  Each batched column is bit-identical to the request served
alone, so batching is purely a scheduling decision.

A waiting group closes into a batch when **any** of:

* **max-size** — ``max_batch`` requests are waiting (a full block);
* **max-wait** — the oldest waiting request has aged ``max_wait``
  (bounds the latency cost of fishing for batch-mates);
* **deadline pressure** — the group's tightest deadline leaves only
  enough time to run the batch now (``min_deadline - now ≤
  est_cost``);
* the solver is not in :data:`BATCHABLE` — those dispatch immediately
  as singleton batches (a Krylov solve with its own state machine gains
  nothing from column stacking here).

The batcher owns *policy only*: requests stay in the
:class:`~repro.serve.queue.AdmissionQueue` (where backpressure and
tenant round-robin are enforced) until the moment a batch closes, at
which point they are extracted in the queue's fair order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

__all__ = ["BATCHABLE", "BatchPolicy", "Batch", "MicroBatcher"]

#: solvers whose column-separable iterations may share a block
BATCHABLE = ("richardson",)


@dataclass(frozen=True)
class BatchPolicy:
    """Knobs of batch formation.

    ``max_batch`` is the multi-RHS block width cap; ``max_wait`` the
    longest a request may age waiting for batch-mates (virtual time).
    """

    max_batch: int = 16
    max_wait: float = 0.01

    def __post_init__(self):
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")
        if self.max_wait < 0.0:
            raise ValueError(f"max_wait must be >= 0, got {self.max_wait}")


@dataclass(eq=False)
class Batch:
    """A closed batch: one multi-RHS solve about to run on a shard."""

    key: tuple
    requests: list = field(default_factory=list)
    formed_at: float = 0.0

    @property
    def size(self):
        return len(self.requests)

    @property
    def matrix_key(self):
        return self.key[0]

    @property
    def solver(self):
        return self.key[1]


class MicroBatcher:
    """Batch-closing policy over the admission queue's group views."""

    def __init__(self, policy: BatchPolicy | None = None):
        self.policy = policy or BatchPolicy()
        self.n_batches = 0

    # ------------------------------------------------------------------
    def _close_time(self, queue, key, size, est_cost):
        """When group ``key`` becomes ready (may be in the past)."""
        pol = self.policy
        if key[1] not in BATCHABLE or size >= pol.max_batch:
            return queue.oldest_arrival(key)  # ready since its oldest arrival
        t_wait = queue.oldest_arrival(key) + pol.max_wait
        deadline = queue.min_deadline(key)
        if math.isfinite(deadline):
            return min(t_wait, deadline - est_cost(key, size))
        return t_wait

    def next_close_time(self, queue, est_cost, *, keys=None):
        """Earliest readiness over (a subset of) waiting groups, or inf."""
        sizes = queue.group_sizes()
        times = [
            self._close_time(queue, key, size, est_cost)
            for key, size in sizes.items()
            if keys is None or key in keys
        ]
        return min(times) if times else math.inf

    def pop_ready(self, queue, now, est_cost, *, keys=None):
        """Extract every group ready at ``now`` as closed batches.

        Groups larger than ``max_batch`` close repeatedly until the
        remainder is no longer ready (its own clock restarts from its
        oldest surviving request).  Extraction order is deterministic:
        groups sorted by (readiness time, key).
        """
        ready = []
        sizes = queue.group_sizes()
        for key, size in sizes.items():
            if keys is not None and key not in keys:
                continue
            t = self._close_time(queue, key, size, est_cost)
            if t <= now:
                ready.append((t, key))
        batches = []
        for _, key in sorted(ready, key=lambda item: (item[0], repr(item[1]))):
            while True:
                sizes = queue.group_sizes()
                size = sizes.get(key, 0)
                if size == 0 or self._close_time(queue, key, size, est_cost) > now:
                    break
                # non-batchable solvers dispatch as singletons: ready at
                # once, but never sharing a block
                cap = self.policy.max_batch if key[1] in BATCHABLE else 1
                take = min(size, cap)
                requests = queue.take(key, take)
                if not requests:
                    break
                self.n_batches += 1
                batches.append(Batch(key=key, requests=requests, formed_at=now))
        return batches
