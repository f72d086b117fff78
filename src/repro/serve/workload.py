"""Seeded open-loop workload generation and result summarization.

An *open-loop* generator: arrivals follow a Poisson process at a fixed
rate, independent of how fast the service drains them — so overload
actually overloads, and the admission queue's backpressure is
exercised rather than hidden by a closed feedback loop.  Everything is
drawn from one seeded generator, making a workload (and hence a whole
service run, whose clock is virtual) a pure function of its
:class:`WorkloadSpec`.

The request mix mirrors what an ILU serving tier sees in practice:

* **pattern popularity is skewed** — matrix keys are drawn from a
  Zipf-like distribution (``p(rank) ∝ rank^-zipf_s``), so a few hot
  patterns dominate (warm factor-cache hits) with a long cold tail;
* **right-hand sides drift** — each pattern's RHS stream is an AR(1)
  walk (:func:`repro.matrices.rhs_stream`), correlated like successive
  timesteps of a simulation, never exactly repeated;
* **tenants, priorities, deadlines, solvers** are drawn independently
  per request.

Matrix keys are strings like ``"grid2d-24"`` or ``"scircuit-0.4"``,
parsed by :func:`build_matrices` against the generator registry in
:mod:`repro.matrices`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..matrices import circuit_network, grid2d, rhs_stream
from .request import SolveRequest

__all__ = [
    "WorkloadSpec",
    "build_matrices",
    "generate_requests",
    "outcome_signature",
    "solutions_identical",
    "summarize",
]


@dataclass(frozen=True)
class WorkloadSpec:
    """One reproducible workload: seed plus the distribution knobs."""

    seed: int = 0
    n_requests: int = 200
    rate: float = 400.0  # mean arrivals per unit of virtual time
    n_tenants: int = 4
    patterns: tuple = ("grid2d-16", "grid2d-24", "grid2d-32")
    zipf_s: float = 1.1
    deadline_lo: float = 0.05
    deadline_hi: float = 0.5
    solvers: tuple = ("richardson",)
    solver_weights: tuple = (1.0,)
    tol: float = 1e-8
    maxiter: int = 200
    drift: float = 0.1

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if not self.rate > 0.0:  # NaN fails every comparison
            raise ValueError(f"rate must be positive, got {self.rate}")
        if self.n_tenants < 1:
            raise ValueError(f"n_tenants must be >= 1, got {self.n_tenants}")
        if not self.patterns:
            raise ValueError("patterns must be non-empty")
        if len(self.solvers) != len(self.solver_weights):
            raise ValueError("solvers and solver_weights must have equal length")
        if not self.deadline_lo <= self.deadline_hi:
            raise ValueError(
                f"deadline_lo must be <= deadline_hi, got {self.deadline_lo} > "
                f"{self.deadline_hi}"
            )


def build_matrices(patterns):
    """Instantiate ``{key: CSRMatrix}`` from ``"name-param"`` keys.

    ``grid2d-N`` → ``grid2d(N)``; ``convect2d-N`` → ``grid2d(N,
    convection=1.0)`` (nonsymmetric); ``circuit-N`` →
    ``circuit_network(N)``.  Seeds are fixed so a key always denotes
    the same matrix.
    """
    out = {}
    for key in patterns:
        name, _, param = key.partition("-")
        if name == "grid2d":
            out[key] = grid2d(int(param))
        elif name == "convect2d":
            out[key] = grid2d(int(param), convection=1.0)
        elif name == "circuit":
            out[key] = circuit_network(int(param), seed=7)
        else:
            raise ValueError(
                f"unknown pattern key {key!r}; expected grid2d-N, convect2d-N "
                f"or circuit-N"
            )
    return out


def generate_requests(spec: WorkloadSpec, matrices):
    """The workload as a list of :class:`SolveRequest`, sorted by arrival."""
    rng = np.random.default_rng(spec.seed)
    ranks = np.arange(1, len(spec.patterns) + 1, dtype=np.float64)
    p_pattern = ranks ** (-spec.zipf_s)
    p_pattern /= p_pattern.sum()
    w = np.asarray(spec.solver_weights, dtype=np.float64)
    p_solver = w / w.sum()
    streams = {
        key: rhs_stream(matrices[key].n_rows, drift=spec.drift, seed=spec.seed + i)
        for i, key in enumerate(spec.patterns)
    }
    reqs = []
    now = 0.0
    for rid in range(spec.n_requests):
        now += float(rng.exponential(1.0 / spec.rate))
        key = spec.patterns[int(rng.choice(len(spec.patterns), p=p_pattern))]
        solver = spec.solvers[int(rng.choice(len(spec.solvers), p=p_solver))]
        tenant = f"tenant{int(rng.integers(spec.n_tenants))}"
        reqs.append(
            SolveRequest(
                request_id=rid,
                tenant=tenant,
                matrix_key=key,
                b=next(streams[key]),
                solver=solver,
                tol=spec.tol,
                deadline=now + float(rng.uniform(spec.deadline_lo, spec.deadline_hi)),
                priority=int(rng.integers(3)),
                arrival_time=now,
                maxiter=spec.maxiter,
            )
        )
    return reqs


def summarize(results):
    """Aggregate a run's results into the bench/report scalar summary."""
    n = len(results)
    by_outcome = {}
    for r in results:
        by_outcome[r.outcome] = by_outcome.get(r.outcome, 0) + 1
    finished = [r for r in results if r.outcome != "rejected"]
    latencies = sorted(r.latency for r in finished)

    def pct(q):
        if not latencies:
            return math.nan
        return latencies[min(len(latencies) - 1, int(math.ceil(q * len(latencies))) - 1)]

    makespan = max((r.finish_time for r in finished), default=0.0)
    served = by_outcome.get("served", 0)
    return {
        "n_requests": n,
        "outcomes": by_outcome,
        "served_fraction": served / n if n else math.nan,
        "deadline_miss_rate": by_outcome.get("deadline_miss", 0) / n if n else math.nan,
        "reject_rate": by_outcome.get("rejected", 0) / n if n else math.nan,
        "p50_latency": pct(0.50),
        "p99_latency": pct(0.99),
        "mean_batch_size": (
            float(np.mean([r.batch_size for r in finished])) if finished else math.nan
        ),
        "makespan": makespan,
        # throughput counts everything that *ran* (including deadline
        # misses and breakdowns — work was done); goodput counts only
        # requests that terminated ``served``.  Gates that mean "useful
        # work per unit time" must read goodput.
        "throughput": (len(finished) / makespan) if makespan > 0 else math.nan,
        "goodput": (served / makespan) if makespan > 0 else math.nan,
    }


def outcome_signature(results):
    """A run's comparable signature: per-request scheduling + numerics."""
    return [
        (r.request_id, r.outcome, r.shard, r.batch_size, r.iterations, r.residual)
        for r in results
    ]


def solutions_identical(a, b):
    """Bitwise equality of per-request solutions across two runs."""
    for ra, rb in zip(a, b):
        if (ra.x is None) != (rb.x is None):
            return False
        if ra.x is not None and not np.array_equal(ra.x, rb.x, equal_nan=True):
            return False
    return True
