"""Wall-clock micro-benchmarks of the real Python kernels.

Unlike the figure benches (which report *simulated* machine times),
these time the actual implementation with pytest-benchmark: spmv in CSR
vs CSR5 tiles, the numeric ILU(0) factorization, the staged
factorization, the triangular solves, and the scalar vs compiled
``ilu_factor`` kernel, and the Python vs compiled nested dissection.
They guard against
performance regressions in the library itself.

Run as a script for the scalar-vs-batched kernel comparison::

    PYTHONPATH=src python benchmarks/bench_kernels.py           # full run,
        # records benchmarks/results/BENCH_kernels.json
    PYTHONPATH=src python benchmarks/bench_kernels.py --check   # fast gate:
        # exits non-zero if a batched kernel diverges from its scalar
        # reference, or if the trisolve, ilu_factor or nested dissection
        # speedup regresses >2x against the recorded baseline

Both modes assert *exact* equality between each batched kernel and its
scalar reference — the bit-identical contract of ``repro.kernels`` —
before reporting any timing.
"""

import json
import os
import sys

import numpy as np

import pytest

from repro.core import JavelinILU
from repro.core.iluk import ilu0_factor
from repro.kernels.trisolve import trisolve_factor
from repro.sparse import CSR5Matrix, spmv_csr, spmv_csr5

from bench_util import (
    RESULTS_DIR,
    bench_main,
    level_ordered_pattern,
    suite_ilu,
    suite_matrix,
)
from bench_util import timeit_alternating


@pytest.fixture(scope="module")
def wang3():
    return suite_matrix("wang3")


@pytest.fixture(scope="module")
def x_wang3(wang3):
    return np.random.default_rng(0).standard_normal(wang3.n_cols)


def test_spmv_csr(benchmark, wang3, x_wang3):
    y = benchmark(spmv_csr, wang3, x_wang3)
    assert y.shape == (wang3.n_rows,)


def test_spmv_csr5(benchmark, wang3, x_wang3):
    A5 = CSR5Matrix(wang3, tile_size=64)
    y = benchmark(spmv_csr5, A5, x_wang3)
    assert np.allclose(y, spmv_csr(wang3, x_wang3))


def test_ilu0_numeric_factor(benchmark, wang3):
    F = benchmark.pedantic(ilu0_factor, args=(wang3,), rounds=1, iterations=1)
    assert F.nnz == wang3.nnz


def test_javelin_staged_factor(benchmark):
    ilu = suite_ilu("wang3")
    res = benchmark.pedantic(ilu.factor, rounds=1, iterations=1)
    assert res.F.nnz == ilu.S_perm.nnz


def test_javelin_setup_phase(benchmark):
    A = suite_matrix("ecology2")

    def setup():
        return JavelinILU().setup(A)

    ilu = benchmark.pedantic(setup, rounds=1, iterations=1)
    assert ilu.stats()["n"] == A.n_rows


def test_trisolve_apply(benchmark, wang3):
    F = ilu0_factor(wang3)
    b = np.random.default_rng(1).standard_normal(wang3.n_rows)
    x = benchmark(trisolve_factor, F, b)
    assert np.all(np.isfinite(x))


def test_trisolve_levelized(benchmark, wang3):
    """The vectorized level-sweep apply — must crush the scalar sweep."""
    from repro.solvers import as_preconditioner

    F = ilu0_factor(wang3)
    apply = as_preconditioner(F, guard=False)  # the reusable apply a Krylov loop runs
    b = np.random.default_rng(1).standard_normal(wang3.n_rows)
    x = benchmark(apply, b)
    assert np.array_equal(x, trisolve_factor(F, b))


def test_level_schedule_phase(benchmark, wang3):
    from repro.ordering import level_schedule

    ls = benchmark(level_schedule, wang3)
    assert ls.n_rows == wang3.n_rows


def test_trisolve_batched_kernel(benchmark, wang3):
    """The apply ``factor_solver`` builds, plans from the symbolic cache."""
    from repro.kernels.trisolve import factor_solver

    F = ilu0_factor(wang3)
    apply = factor_solver(F)  # built once; the applies reuse it
    b = np.random.default_rng(1).standard_normal(wang3.n_rows)
    x = benchmark(apply, b)
    assert np.array_equal(x, trisolve_factor(F, b))


def test_upper_p2p_sim_batched(benchmark):
    """The batched DES vs its own scalar reference on a suite matrix."""
    from repro.core.symbolic import row_factor_costs
    from repro.core.upper import assign_round_robin, simulate_upper_p2p
    from repro.kernels.des import upper_p2p_sim_scalar
    from repro.machine import SimMachine, haswell

    ilu = suite_ilu("wang3")
    S = ilu.S_perm
    flops, touched = row_factor_costs(S)
    ls = ilu._full_level_ptr()
    mach = SimMachine(haswell(), 8)
    mk, _, _ = benchmark(
        simulate_upper_p2p, S, ls.level_ptr, mach, flops, touched
    )
    mk_ref, _, _ = upper_p2p_sim_scalar(
        S, mach, assign_round_robin(ls.level_ptr, 8), flops, touched, m=int(ls.level_ptr[-1])
    )
    assert mk == mk_ref


# ----------------------------------------------------------------------
# CLI: scalar-vs-batched comparison with a recorded JSON baseline
# ----------------------------------------------------------------------
BASELINE_PATH = os.path.join(RESULTS_DIR, "BENCH_kernels.json")

# grid2d(224) has n = 50176 (the acceptance case); grid2d(48) is the
# fast gate the tier-1 smoke test runs on every change
FULL_CASES = [224, 48]
CHECK_CASE = 48
# the numeric factor's cases: ILU(1) of grid2d(24) is its fast gate
FACTOR_CASES = [24, 48]
FACTOR_CHECK_CASE = 24
# nested dissection runs on the four e2ebench ``oneshot`` matrices; scale
# 0.25 is its fast gate, 1.0 the size a oneshot pass orders
ND_MATRICES = ("thermal2", "scircuit", "af_shell3", "TSOPF_RS_b300_c2")
ND_SCALES = [1.0, 0.25]
ND_CHECK_SCALE = 0.25
#: compiled orderings per timed sample: one pass over the four matrices
#: takes 5-25 ms
ND_CALLS = 5


#: calls per timed sample of a fast (batched or compiled) kernel: one call
#: takes 0.1-2 ms, so a sample of one call is mostly timer and scheduler noise
FAST_CALLS = 50


def _timed(fns, calls, repeats):
    """:func:`timeit_alternating` of ``fns``, ``calls[i]`` calls of ``fns[i]`` per sample.

    Returns one ``(best_seconds, output, samples)`` per function, with
    the seconds per call.
    """

    def batch(fn, k):
        def run():
            for _ in range(k - 1):
                fn()
            return fn()

        return run

    timed = timeit_alternating([batch(fn, k) for fn, k in zip(fns, calls)], repeats=repeats)
    return [(best / k, out, [t / k for t in samples])
            for (best, out, samples), k in zip(timed, calls)]


def _trisolve_case(nx, repeats=3):
    """Time the scalar L/U sweeps vs the factor apply on a grid2d(nx) ILU(0)-style factor.

    The matrix's own values stand in for a factor (same pattern, full
    diagonal) — the sweeps only care about structure, and skipping the
    numeric factorization keeps the big case fast to regenerate.  The
    apply is built once up front, as a Krylov loop reuses it.  A sample
    is one scalar solve or :data:`FAST_CALLS` applies.
    """
    from repro.kernels.trisolve import factor_solver, trisolve_factor
    from repro.kernels import cached_analysis
    from repro.matrices.generators import grid2d

    F = grid2d(nx)
    b = np.random.default_rng(0).standard_normal(F.n_rows)
    analysis = cached_analysis(F)
    apply = factor_solver(F, analysis)
    apply(b)  # the first call loads the compiled sweep; keep that out of the samples
    (t_scalar, x_scalar, scalar_samples), (t_batched, x_batched, batched_samples) = _timed(
        [lambda: trisolve_factor(F, b), lambda: apply(b)], [1, FAST_CALLS], repeats
    )
    return {
        "case": f"grid2d-{nx}",
        "kernel": "trisolve",
        "n": int(F.n_rows),
        "nnz": int(F.nnz),
        "n_levels": int(analysis.plan("lower").n_levels),
        "batched_calls": FAST_CALLS,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_samples": scalar_samples,
        "batched_samples": batched_samples,
        "speedup": t_scalar / t_batched,
        "max_abs_diff": float(np.max(np.abs(x_scalar - x_batched))) if F.n_rows else 0.0,
        "exact_equal": bool(np.array_equal(x_scalar, x_batched)),
    }


def _des_case(nx=64, p=8, repeats=3):
    """Time scalar vs batched upper-stage DES on grid2d(nx)."""
    from repro.core.symbolic import row_factor_costs
    from repro.core.upper import assign_round_robin
    from repro.kernels.des import upper_p2p_sim, upper_p2p_sim_scalar
    from repro.machine import SimMachine, haswell

    Sp, lsp = level_ordered_pattern(nx)
    flops, touched = row_factor_costs(Sp)
    mach = SimMachine(haswell(), p)
    thread_of, m = assign_round_robin(lsp.level_ptr, p), int(lsp.level_ptr[-1])
    (t_scalar, res_s, scalar_samples), (t_batched, res_b, batched_samples) = timeit_alternating(
        [
            lambda: upper_p2p_sim_scalar(Sp, mach, thread_of, flops, touched, m=m),
            lambda: upper_p2p_sim(Sp, mach, thread_of, flops, touched, m=m),
        ],
        repeats=repeats,
    )
    return {
        "case": f"grid2d-{nx}",
        "kernel": "upper_p2p_sim",
        "n": int(Sp.n_rows),
        "p": int(p),
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_samples": scalar_samples,
        "batched_samples": batched_samples,
        "speedup": t_scalar / t_batched,
        "exact_equal": bool(
            res_s[0] == res_b[0] and np.array_equal(res_s[1], res_b[1])
        ),
    }


def _factor_case(nx, repeats=3):
    """Time ``ilu_factor_sequential`` vs the compiled ``ilu_factor``: ILU(1) of grid2d(nx).

    ``batched_s`` times the compiled factor with the pattern's symbolic
    analysis cached, as a refactor loop finds it; ``cold_s`` clears the
    symbolic cache first, so it also pays the analysis lookup and the
    diagonal positions.  The three take turns; a sample is one scalar
    factor or :data:`FAST_CALLS` compiled ones.  ``exact_equal`` compares
    the factor bytes.
    """
    from repro.core import JavelinILU, JavelinOptions
    from repro.core.iluk import ilu_factor, ilu_factor_sequential
    from repro.kernels import clear_default_cache
    from repro.matrices.generators import grid2d

    ilu = JavelinILU(JavelinOptions(fill_level=1)).setup(grid2d(nx))
    A, S = ilu.A_perm, ilu.S_perm

    def cold():
        clear_default_cache()
        return ilu_factor(A, S)

    ilu_factor(A, S)  # the first call loads the compiled library; keep that out of the samples
    # cold runs first in each round, so the batched calls after it find the analysis cached
    (
        (t_cold, F_cold, cold_samples),
        (t_scalar, F_scalar, scalar_samples),
        (t_batched, F_batched, batched_samples),
    ) = _timed(
        [cold, lambda: ilu_factor_sequential(A, S), lambda: ilu_factor(A, S)],
        [FAST_CALLS, 1, FAST_CALLS],
        repeats,
    )
    return {
        "case": f"grid2d-{nx}-ilu1",
        "kernel": "ilu_factor",
        "n": int(S.n_rows),
        "nnz": int(S.nnz),
        "batched_calls": FAST_CALLS,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "cold_s": t_cold,
        "scalar_samples": scalar_samples,
        "batched_samples": batched_samples,
        "cold_samples": cold_samples,
        "speedup": t_scalar / t_batched,
        "cold_speedup": t_scalar / t_cold,
        "exact_equal": F_scalar.data.tobytes() == F_batched.data.tobytes()
        == F_cold.data.tobytes(),
    }


def _nd_case(scale, repeats=3):
    """Time the Python fallback vs the compiled nested dissection on the ``oneshot`` matrices.

    A sample orders all four matrices at ``scale`` with ``leaf_size=32``,
    adjacency build included: once with the explicit-stack Python loop
    (the no-compiler fallback) and :data:`ND_CALLS` times with
    :func:`~repro.ordering.nd.nested_dissection_order`, which makes one
    compiled call.  ``exact_equal`` requires every permutation to match.
    """
    from repro.matrices import build_matrix
    from repro.ordering import nd
    from repro.ordering.graph import adjacency_from_pattern

    mats = [build_matrix(name, scale=scale) for name in ND_MATRICES]

    def fallback():
        return [nd._dissect(*adjacency_from_pattern(A), 32) for A in mats]

    def compiled():
        return [nd.nested_dissection_order(A, leaf_size=32) for A in mats]

    compiled()  # the first call loads the compiled library; keep that out of the samples
    (t_scalar, p_scalar, scalar_samples), (t_batched, p_batched, batched_samples) = _timed(
        [fallback, compiled], [1, ND_CALLS], repeats
    )
    return {
        "case": f"oneshot-{scale:g}",
        "kernel": "nested_dissection",
        "n": int(sum(A.n_rows for A in mats)),
        "batched_calls": ND_CALLS,
        "scalar_s": t_scalar,
        "batched_s": t_batched,
        "scalar_samples": scalar_samples,
        "batched_samples": batched_samples,
        "speedup": t_scalar / t_batched,
        "exact_equal": all(np.array_equal(a, b) for a, b in zip(p_scalar, p_batched)),
    }


def _speed_gate(entry, baseline):
    """Failure text if ``entry``'s speedup fell below half its recorded value."""
    base = next(
        (
            e
            for e in baseline["entries"]
            if e["kernel"] == entry["kernel"] and e["case"] == entry["case"]
        ),
        None,
    )
    if base is not None and entry["speedup"] < base["speedup"] / 2.0:
        return (
            f"{entry['kernel']} speedup {entry['speedup']:.1f}x regressed "
            f">2x vs recorded baseline {base['speedup']:.1f}x"
        )
    return None


def run(check):
    """Scalar vs batched trisolve, DES, factor and dissection; ``check`` adds the baseline gate.

    Full mode times the acceptance case (n = 50k); the fast gate runs
    the small cases and fails on divergence, or on a >2x trisolve,
    ``ilu_factor`` or nested dissection speedup regression against the
    recorded baseline.
    """
    if check:
        entry = _trisolve_case(CHECK_CASE, repeats=3)
        des = _des_case(nx=24, p=4, repeats=1)
        fac = _factor_case(FACTOR_CHECK_CASE, repeats=3)
        ndc = _nd_case(ND_CHECK_SCALE, repeats=3)
        entries = [entry, des, fac, ndc]
    else:
        entries = [_trisolve_case(nx) for nx in FULL_CASES]
        entries.append(_des_case())
        entries += [_factor_case(nx) for nx in FACTOR_CASES]
        entries += [_nd_case(scale) for scale in ND_SCALES]
    record = {
        "meta": {
            "numpy": np.__version__,
            "python": sys.version.split()[0],
            "repeats": 3,
            "note": "best-of-3 wall-clock per call, the timed calls of a case taking "
            "turns, batched_calls calls per sample of the fast kernels; exact_equal "
            "asserts the bit-identical scalar/batched contract",
        },
        "entries": entries,
    }
    failures = []
    if not check:
        for e in entries:
            print(
                f"{e['kernel']:>14} {e['case']:>11} n={e['n']:>6}: "
                f"scalar {e['scalar_s'] * 1e3:8.2f} ms, "
                f"batched {e['batched_s'] * 1e3:8.2f} ms, "
                f"speedup {e['speedup']:6.1f}x, exact={e['exact_equal']}"
                + (f", cold {e['cold_s'] * 1e3:.2f} ms" if "cold_s" in e else "")
            )
        if not all(e["exact_equal"] for e in entries):
            failures.append("batched and scalar kernels diverged")
        return record, failures

    if not entry["exact_equal"] or entry["max_abs_diff"] != 0.0:
        failures.append("batched trisolve diverges from scalar")
    if not des["exact_equal"]:
        failures.append("batched DES diverges from scalar")
    if not fac["exact_equal"]:
        failures.append("batched ilu_factor diverges from scalar")
    if not ndc["exact_equal"]:
        failures.append("compiled nested dissection diverges from its Python fallback")
    if os.path.exists(BASELINE_PATH):
        with open(BASELINE_PATH) as fh:
            baseline = json.load(fh)
        failures += [f for f in (_speed_gate(e, baseline) for e in (entry, fac, ndc)) if f]
    else:
        print(f"note: no baseline at {BASELINE_PATH}; divergence check only")
    print(
        f"check {entry['case']}: speedup {entry['speedup']:.1f}x, "
        f"exact={entry['exact_equal']}; DES exact={des['exact_equal']}; "
        f"ilu_factor exact={fac['exact_equal']} ({fac['speedup']:.1f}x, "
        f"cold {fac['cold_speedup']:.1f}x); nested dissection exact={ndc['exact_equal']} "
        f"(Python {ndc['scalar_s'] * 1e3:.1f} ms, compiled {ndc['batched_s'] * 1e3:.1f} ms, "
        f"{ndc['speedup']:.1f}x)"
    )
    return record, failures


if __name__ == "__main__":
    raise SystemExit(bench_main("kernels", run, __doc__))
