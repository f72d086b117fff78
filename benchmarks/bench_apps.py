"""Application-driver benchmark: the time-evolving workload gates, recorded.

Usage::

    PYTHONPATH=src python benchmarks/bench_apps.py
        # records benchmarks/results/BENCH_apps.json
    PYTHONPATH=src python benchmarks/bench_apps.py --check
        # fast CI gate: refactor bit-identity + staleness sanity
        # + each heat step's matrix against its per-node rebuild

Runs the two application drivers (implicit heat/convection stepper,
power-flow Newton continuation) against the serve API under each
factor-staleness policy:

* **steps/sec** (virtual clock) for cold-rebuild vs value-only
  refactor vs stale-factor serving — the setup-amortization tradeoff
  the paper motivates, measured end-to-end;
* **iteration-drift curves** — per-step iteration counts under each
  policy (the stale policy's degradation signal, plotted raw);
* **refactor bit-identity gates** — a value-only refactor must be
  bitwise equal to a from-scratch factorization of the same values,
  must reuse the cached symbolic products (no new symbolic-cache
  misses), and must be measurably cheaper than a cold setup in both
  wall-clock and virtual charge;
* **staleness sanity gates** — the stale policy actually skips
  refactors, drifts iterations upward, and still serves everything;
* **heat matrix gate** — the matrix every heat step served is bitwise
  the per-node rebuild of that step's system (the stepper itself
  builds its pattern once and moves only values).

``--check`` shrinks sizes and step counts for CI; the gates are
identical.  Everything is seeded — two runs of the same command
produce the same JSON (modulo the wall-clock timing section, which is
measurement, not simulation).
"""

import time

import numpy as np

from repro.apps import HeatStepper, PowerFlowNewton
from repro.core import JavelinILU, JavelinOptions
from repro.kernels import diag_positions
from repro.kernels.cache import default_cache
from repro.matrices import grid2d
from repro.obs.metrics import MetricsRegistry, validate_metrics
from repro.serve import StalenessPolicy
from repro.sparse.convert import coo_to_csr
from repro.sparse.coo import COOMatrix

from bench_util import Gates, bench_main

SEED = 0


def _core_refactor_gates(gate, *, size, n_values, fill_level=1):
    """Bit-identity, symbolic reuse, and cost advantage of refactor().

    Times ``n_values`` cold ``setup+factor`` runs against the same
    values applied through ``refactor()`` on one warm instance.  The
    symbolic cache is cleared before the cold runs so "cold" honestly
    pays the analysis the refactor path amortizes.
    """
    opts = JavelinOptions(fill_level=fill_level)
    values = [grid2d(size, convection=0.05 * (j + 1)) for j in range(n_values)]

    default_cache().clear()
    cold_results = []
    t0 = time.perf_counter()
    for B in values:
        default_cache().clear()
        cold_results.append(JavelinILU(opts).setup(B).factor())
    cold_time = time.perf_counter() - t0

    warm = JavelinILU(opts).setup(grid2d(size))
    warm.factor()
    stats_before = default_cache().stats()
    t0 = time.perf_counter()
    warm_results = [warm.refactor(B) for B in values]
    warm_time = time.perf_counter() - t0
    stats_after = default_cache().stats()

    identical = all(
        np.array_equal(c.F.data, w.F.data)
        and np.array_equal(c.F.indices, w.F.indices)
        for c, w in zip(cold_results, warm_results)
    )
    gate(identical, "value-only refactor bitwise equals cold factorization")
    gate(
        stats_after["misses"] == stats_before["misses"],
        "refactor reuses cached symbolic products (no new cache misses)",
    )
    gate(warm_time < cold_time, "value-only refactor wall-clock cheaper than cold setup")
    return {
        "size": size,
        "n_values": n_values,
        "cold_seconds": cold_time,
        "refactor_seconds": warm_time,
        "refactor_speedup": (cold_time / warm_time) if warm_time > 0 else float("inf"),
        "symbolic_cache_hits_during_refactor": stats_after["hits"] - stats_before["hits"],
        "symbolic_cache_misses_during_refactor": stats_after["misses"] - stats_before["misses"],
    }


def _heat_matrix_per_node(stepper, step):
    """The heat system ``I + Δt·κ·A(v)`` of one step, rebuilt node by node.

    The stepper's own matrix comes from a pattern built once and a
    whole-array value function; this is the 5-point upwind stencil
    assembled entry by entry (``grid2d``'s per-node loop), scaled, and
    shifted on the diagonal, as every step once rebuilt it.
    """
    kappa_t, conv_t = stepper.coefficients(step)
    nx, ny = stepper.nx, stepper.ny
    rows, cols, vals = [], [], []
    for i in range(nx):
        for j in range(ny):
            r = i * ny + j
            diag = 0.0
            for di, dj in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                ii, jj = i + di, j + dj
                if 0 <= ii < nx and 0 <= jj < ny:
                    w = -1.0
                    if conv_t and di == 1:
                        w += conv_t
                    if conv_t and di == -1:
                        w -= conv_t
                    rows.append(r)
                    cols.append(ii * ny + jj)
                    vals.append(w)
                    diag += abs(w)
            rows.append(r)
            cols.append(r)
            vals.append(diag + 0.0)
    M = coo_to_csr(COOMatrix(nx * ny, nx * ny, np.asarray(rows), np.asarray(cols),
                             np.asarray(vals)))
    M.data *= stepper.dt * kappa_t
    M.data[diag_positions(M)] += 1.0
    return M


def _same_bits(A, B):
    return all(
        a.dtype == b.dtype and a.tobytes() == b.tobytes()
        for a, b in ((A.indptr, B.indptr), (A.indices, B.indices), (A.data, B.data))
    )


def _heat_sweep(gate, *, nx, n_steps):
    """Heat stepper under each staleness policy + cross-policy gates."""
    runs = {}
    solutions = {}
    served_bits = True
    for mode in ("cold", "refactor", "stale"):
        stepper = HeatStepper(nx, seed=SEED, staleness=StalenessPolicy(mode=mode))
        records = []
        for _ in range(n_steps):
            records.append(stepper.step())
            served = stepper.session.service.matrices[stepper.session.key]
            served_bits &= _same_bits(served, _heat_matrix_per_node(stepper, stepper.t))
        runs[mode] = stepper.summary()
        solutions[mode] = [r.x for r in records]
    gate(served_bits, "heat: every step's matrix bitwise equals its per-node rebuild")
    gate(
        all(
            sum(run["outcomes"].values()) == run["outcomes"].get("served", 0)
            for run in runs.values()
        ),
        "heat: every step served under every policy",
    )
    gate(
        all(
            np.array_equal(a, b)
            for a, b in zip(solutions["cold"], solutions["refactor"])
        ),
        "heat: refactor-policy solutions bitwise equal cold-policy (identity end-to-end)",
    )
    gate(
        runs["refactor"]["steps_per_sec"] > runs["cold"]["steps_per_sec"],
        "heat: value-only refactor beats cold rebuild on virtual steps/sec",
    )
    gate(
        runs["stale"]["refactors"] < runs["refactor"]["refactors"]
        and runs["stale"]["stale_steps"] > 0,
        "heat: stale policy actually skips refactors",
    )
    drift = runs["stale"]["iteration_curve"]
    gate(
        max(drift) >= drift[0],
        "heat: stale policy's iteration curve records drift",
    )
    return runs


def _powerflow_run(gate, *, n):
    """Newton continuation under refactor vs cold, with identity gate."""
    runs = {}
    finals = {}
    for mode in ("cold", "refactor"):
        pf = PowerFlowNewton(n, seed=SEED, staleness=StalenessPolicy(mode=mode))
        pf.solve()
        runs[mode] = pf.summary()
        finals[mode] = pf.x
    gate(
        runs["refactor"]["final_residual"] < 1e-6,
        "powerflow: Newton converged at full load",
    )
    gate(
        np.array_equal(finals["cold"], finals["refactor"]),
        "powerflow: Newton iterates bitwise identical under cold vs refactor",
    )
    gate(
        runs["refactor"]["refactors"] > 0,
        "powerflow: Newton loop exercises the value-only path",
    )
    gate(
        runs["refactor"]["steps_per_sec"] > runs["cold"]["steps_per_sec"],
        "powerflow: value-only refactor beats cold rebuild on virtual steps/sec",
    )
    return runs


def run(check):
    """The apps gates in order; returns ``(record, failures)``."""
    gate = Gates()

    print("apps bench: value-only refactor identity + cost")
    core = _core_refactor_gates(
        gate,
        size=8 if check else 16,
        n_values=3 if check else 6,
    )
    print(
        f"    cold {core['cold_seconds']:.4f}s vs refactor "
        f"{core['refactor_seconds']:.4f}s ({core['refactor_speedup']:.2f}x)"
    )

    print("apps bench: implicit heat/convection stepper (policy sweep)")
    heat = _heat_sweep(gate, nx=8 if check else 14, n_steps=6 if check else 24)
    for mode in ("cold", "refactor", "stale"):
        s = heat[mode]
        print(
            f"    {mode:>8}: {s['steps_per_sec']:8.1f} steps/s (virtual), "
            f"cold {s['cold_builds']}, refactors {s['refactors']}, "
            f"stale {s['stale_steps']}"
        )

    print("apps bench: power-flow Newton continuation")
    power = _powerflow_run(gate, n=120 if check else 240)
    print(
        f"    newton iterations {power['refactor']['newton_iterations']}, "
        f"final residual {power['refactor']['final_residual']:.2e}, "
        f"refactors {power['refactor']['refactors']}"
    )

    registry = MetricsRegistry()
    metered = HeatStepper(
        8,
        seed=SEED,
        staleness=StalenessPolicy(mode="refactor"),
        registry=registry,
    )
    metered.run(4)
    snapshot = registry.snapshot()
    gate(not validate_metrics(snapshot), "metrics snapshot validates")
    gate(
        snapshot["counters"].get("serve.refactors", 0) > 0,
        "serve.refactors counter wired through obs",
    )

    record = {
        "bench": "apps",
        "mode": "check" if check else "full",
        "seed": SEED,
        "core_refactor": core,
        "heat": heat,
        "powerflow": power,
        "failures": gate.failures,
        "metrics": snapshot,
    }
    return record, gate.failures


if __name__ == "__main__":
    raise SystemExit(bench_main("apps", run, __doc__))
