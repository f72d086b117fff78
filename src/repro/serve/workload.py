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
    "WORKLOAD_SHAPES",
    "WorkloadSpec",
    "arrival_rate",
    "build_matrices",
    "generate_requests",
    "outcome_signature",
    "solutions_identical",
    "summarize",
]

#: arrival/mix shapes a :class:`WorkloadSpec` can take.  ``poisson`` is
#: the historical constant-rate stream (draw-for-draw identical to the
#: pre-shape generator); the others stress the serving tier's weak
#: spots: ``diurnal`` (sinusoidal rate curve — sustained swing between
#: quiet and rush hours), ``flash_crowd`` (a rate spike of
#: ``flash_factor``× during a window — queue/backpressure stress), and
#: ``hot_key_storm`` (pattern mix collapses onto one hot key during a
#: window — replication and cache-placement stress), and
#: ``multi_region`` (``n_regions`` regions, each with its own zipf skew
#: — the hot pattern differs per region — and a phase-shifted diurnal
#: arrival curve, so "rush hour" rolls around the regions).
WORKLOAD_SHAPES = ("poisson", "diurnal", "flash_crowd", "hot_key_storm", "multi_region")


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
    scheduler: str | None = None  # trisolve scheduler for every request
    #: arrival/mix shape (one of :data:`WORKLOAD_SHAPES`) and its knobs
    shape: str = "poisson"
    diurnal_period: float = 0.5  # one full day on the virtual clock
    diurnal_amplitude: float = 0.8  # rate swings rate·(1 ± amplitude)
    burst_at: float = 0.1  # flash-crowd / storm window start (virtual time)
    burst_duration: float = 0.1
    flash_factor: float = 6.0  # rate multiplier inside the flash window
    storm_intensity: float = 0.95  # P(hot key) inside the storm window
    storm_rank: int = 0  # which pattern (by zipf rank) the storm hammers
    #: multi_region knobs: each region's zipf ranking is rotated by its
    #: index (region r's hottest pattern is ``patterns[r % len]``) and
    #: its diurnal phase shifted by ``r / n_regions`` of a period
    n_regions: int = 3
    region_weights: tuple = ()  # per-region traffic share; () = equal
    #: optional SLA-class mix, ``((class, weight), ...)``; () keeps the
    #: historical draw sequence (every request "standard")
    sla_weights: tuple = ()

    def __post_init__(self):
        if self.n_requests < 1:
            raise ValueError(f"n_requests must be >= 1, got {self.n_requests}")
        if self.rate <= 0.0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if not self.patterns:
            raise ValueError("patterns must be non-empty")
        if len(self.solvers) != len(self.solver_weights):
            raise ValueError("solvers and solver_weights must have equal length")
        if self.shape not in WORKLOAD_SHAPES:
            raise ValueError(
                f"shape must be one of {WORKLOAD_SHAPES}, got {self.shape!r}"
            )
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1), got {self.diurnal_amplitude}"
            )
        if self.diurnal_period <= 0.0:
            raise ValueError(f"diurnal_period must be positive, got {self.diurnal_period}")
        if self.flash_factor < 1.0:
            raise ValueError(f"flash_factor must be >= 1, got {self.flash_factor}")
        if not 0.0 <= self.storm_intensity <= 1.0:
            raise ValueError(
                f"storm_intensity must be in [0, 1], got {self.storm_intensity}"
            )
        if not 0 <= self.storm_rank < len(self.patterns):
            raise ValueError(
                f"storm_rank must index patterns (0..{len(self.patterns) - 1}), "
                f"got {self.storm_rank}"
            )
        if self.n_regions < 1:
            raise ValueError(f"n_regions must be >= 1, got {self.n_regions}")
        if self.region_weights and len(self.region_weights) != self.n_regions:
            raise ValueError(
                f"region_weights must have n_regions={self.n_regions} entries, "
                f"got {len(self.region_weights)}"
            )
        if any(w <= 0.0 for w in self.region_weights):
            raise ValueError("region_weights must be positive")
        from .request import SLA_CLASSES

        for cls, w in self.sla_weights:
            if cls not in SLA_CLASSES:
                raise ValueError(
                    f"sla_weights class must be one of {SLA_CLASSES}, got {cls!r}"
                )
            if w <= 0.0:
                raise ValueError(f"sla_weights weight must be positive, got {w}")


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


def _region_shares(spec: WorkloadSpec):
    """Normalized per-region traffic shares (equal when unspecified)."""
    if spec.region_weights:
        w = np.asarray(spec.region_weights, dtype=np.float64)
    else:
        w = np.ones(spec.n_regions)
    return w / w.sum()


def _region_rates(spec: WorkloadSpec, t: float):
    """Per-region instantaneous rates: phase-shifted diurnal curves.

    Region ``r`` peaks ``r / n_regions`` of a period after region 0 —
    rush hour rolls around the globe instead of hitting everywhere at
    once.
    """
    shares = _region_shares(spec)
    rates = []
    for r in range(spec.n_regions):
        phase = 2.0 * math.pi * (t / spec.diurnal_period - r / spec.n_regions)
        rates.append(
            float(shares[r])
            * spec.rate
            * (1.0 + spec.diurnal_amplitude * math.sin(phase))
        )
    return rates


def arrival_rate(spec: WorkloadSpec, t: float) -> float:
    """Instantaneous arrival rate λ(t) of the spec's shape at time ``t``."""
    if spec.shape == "diurnal":
        phase = 2.0 * math.pi * t / spec.diurnal_period
        return spec.rate * (1.0 + spec.diurnal_amplitude * math.sin(phase))
    if spec.shape == "flash_crowd":
        in_burst = spec.burst_at <= t < spec.burst_at + spec.burst_duration
        return spec.rate * (spec.flash_factor if in_burst else 1.0)
    if spec.shape == "multi_region":
        return sum(_region_rates(spec, t))
    return spec.rate  # poisson and hot_key_storm arrive at constant rate


def _peak_rate(spec: WorkloadSpec) -> float:
    """An upper bound on λ(t), the thinning envelope."""
    if spec.shape in ("diurnal", "multi_region"):
        # multi_region: shares sum to 1, so the total is bounded by the
        # all-regions-at-peak envelope even though phases never align
        return spec.rate * (1.0 + spec.diurnal_amplitude)
    if spec.shape == "flash_crowd":
        return spec.rate * spec.flash_factor
    return spec.rate


def _next_arrival(spec, rng, now):
    """One inter-arrival step of the (possibly inhomogeneous) process.

    Constant-rate shapes draw one exponential gap; time-varying shapes
    use Lewis–Shedler thinning against the peak-rate envelope — still a
    pure function of the seeded generator's draw sequence.
    """
    peak = _peak_rate(spec)
    if spec.shape in ("poisson", "hot_key_storm"):
        return now + float(rng.exponential(1.0 / peak))
    while True:
        now += float(rng.exponential(1.0 / peak))
        if float(rng.random()) * peak <= arrival_rate(spec, now):
            return now


def generate_requests(spec: WorkloadSpec, matrices):
    """The workload as a list of :class:`SolveRequest`, sorted by arrival.

    For the default ``poisson`` shape the draw sequence is identical to
    the historical generator, so existing seeded workloads replay
    unchanged; the other :data:`WORKLOAD_SHAPES` reinterpret the same
    seeded stream as an inhomogeneous arrival process or a skewed
    pattern mix.
    """
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
    if spec.sla_weights:
        sla_classes = tuple(cls for cls, _ in spec.sla_weights)
        sw = np.asarray([w for _, w in spec.sla_weights], dtype=np.float64)
        p_sla = sw / sw.sum()
    for rid in range(spec.n_requests):
        now = _next_arrival(spec, rng, now)
        region = None
        if spec.shape == "multi_region":
            # attribute the arrival to a region ∝ its instantaneous
            # rate (one uniform draw), so regional mix follows the
            # rolling rush hour
            rates = _region_rates(spec, now)
            u = float(rng.random()) * sum(rates)
            region, acc = spec.n_regions - 1, 0.0
            for ri, rr in enumerate(rates):
                acc += rr
                if u <= acc:
                    region = ri
                    break
        rank = int(rng.choice(len(spec.patterns), p=p_pattern))
        if region is not None:
            # per-region zipf skew: rotate the ranking so each region's
            # hottest pattern is a different key
            rank = (rank + region) % len(spec.patterns)
        key = spec.patterns[rank]
        if (
            spec.shape == "hot_key_storm"
            and spec.burst_at <= now < spec.burst_at + spec.burst_duration
            and float(rng.random()) < spec.storm_intensity
        ):
            key = spec.patterns[spec.storm_rank]  # the storm's hot key
        solver = spec.solvers[int(rng.choice(len(spec.solvers), p=p_solver))]
        tenant = f"tenant{int(rng.integers(spec.n_tenants))}"
        if region is not None:
            tenant = f"r{region}-{tenant}"
        sla = "standard"
        if spec.sla_weights:
            sla = sla_classes[int(rng.choice(len(sla_classes), p=p_sla))]
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
                scheduler=spec.scheduler,
                sla=sla,
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
