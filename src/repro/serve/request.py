"""Solve requests and their structured outcomes.

The serving layer's unit of work is a :class:`SolveRequest`: one
right-hand side against one registered matrix, with a solver choice, a
convergence tolerance, an absolute deadline and a priority.  Every
request admitted to the service terminates in exactly one
:class:`RequestResult` whose ``outcome`` is one of :data:`OUTCOMES` —
there is no fifth state and no silent drop, which is what lets the
fault-injected workload tests assert "no hangs" by counting.

All times are *virtual*: the deterministic service core
(:mod:`repro.serve.workers`) advances a simulated clock, so a workload
replays bit-for-bit from its seed.  ``deadline`` and ``arrival_time``
live on that clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["OUTCOMES", "SolveRequest", "RequestResult"]

#: the complete outcome vocabulary — every admitted request ends in one
OUTCOMES = ("served", "deadline_miss", "rejected", "breakdown")


@dataclass(frozen=True, eq=False)
class SolveRequest:
    """One solve of ``A[matrix_key] x = b`` under a deadline.

    ``priority`` orders requests *within* a tenant (higher first);
    across tenants the admission queue takes turns round-robin, so a
    high-priority tenant cannot starve the others.  ``deadline`` is an
    absolute virtual time; ``math.inf`` means best-effort.  A NaN
    ``arrival_time``, ``deadline`` or ``tol`` is rejected here: a NaN
    arrival never satisfies ``arrival_time <= now``, so the service
    would wait for it forever.
    """

    request_id: int
    tenant: str
    matrix_key: str
    b: np.ndarray
    solver: str = "richardson"
    tol: float = 1e-8
    deadline: float = math.inf
    priority: int = 0
    arrival_time: float = 0.0
    maxiter: int = 200

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64))
        if self.b.ndim != 1:
            raise ValueError(f"b must be 1-D, got shape {self.b.shape}")
        for name in ("arrival_time", "deadline"):
            if math.isnan(getattr(self, name)):
                raise ValueError(f"{name} must not be NaN")
        if not self.tol > 0.0:  # NaN fails every comparison
            raise ValueError(f"tol must be positive, got {self.tol}")
        if self.maxiter < 1:
            raise ValueError(f"maxiter must be >= 1, got {self.maxiter}")

    @property
    def batch_key(self):
        """What must match for two requests to share a multi-RHS batch.

        The pattern fingerprint keys the *factor* cache; batching
        additionally requires identical solver semantics — same matrix
        (hence same values, not just pattern), tolerance and iteration
        cap — so a batched column is bit-identical to the request
        served alone.
        """
        return (self.matrix_key, self.solver, self.tol, self.maxiter)


@dataclass(eq=False)
class RequestResult:
    """The structured terminal state of one request.

    ``outcome`` ∈ :data:`OUTCOMES`.  A ``deadline_miss`` still carries
    the computed solution (the work was done, just late); a
    ``rejected`` request never ran (``x is None``); a ``breakdown``
    means the solve produced non-finite values even after the
    resilience chain's one permitted mid-solve demotion.
    """

    request_id: int
    outcome: str
    x: np.ndarray | None = None
    iterations: int = 0
    residual: float = math.nan
    converged: bool = False
    arrival_time: float = 0.0
    start_time: float = math.nan
    finish_time: float = math.nan
    shard: int = -1
    batch_size: int = 0
    variant: str | None = None
    detail: str = ""

    def __post_init__(self):
        if self.outcome not in OUTCOMES:
            raise ValueError(f"outcome must be one of {OUTCOMES}, got {self.outcome!r}")

    @classmethod
    def unrun(cls, req, outcome, now, detail):
        """The terminal state of a request that never ran, decided at ``now``."""
        return cls(
            request_id=req.request_id,
            outcome=outcome,
            arrival_time=req.arrival_time,
            start_time=now,
            finish_time=now,
            detail=detail,
        )

    @property
    def latency(self) -> float:
        """Arrival → termination on the virtual clock.

        A request that never ran terminates when it is decided
        (:meth:`unrun`), so a reject's latency is its time in the queue
        — zero for one bounced on arrival.
        """
        return self.finish_time - self.arrival_time

    @property
    def wait_time(self) -> float:
        """Arrival → dispatch (queueing + batching delay)."""
        return self.start_time - self.arrival_time

    def to_dict(self):
        """JSON-ready summary (the solution vector is deliberately omitted)."""
        return {
            "request_id": int(self.request_id),
            "outcome": self.outcome,
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "converged": bool(self.converged),
            "arrival_time": float(self.arrival_time),
            "start_time": float(self.start_time),
            "finish_time": float(self.finish_time),
            "shard": int(self.shard),
            "batch_size": int(self.batch_size),
            "variant": self.variant,
            "detail": self.detail,
        }
