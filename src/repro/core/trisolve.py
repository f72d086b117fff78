"""Sparse triangular solves co-designed with the factorization (§VI).

An ILU-preconditioned Krylov iteration calls ``stri`` thousands of
times per factorization, so Javelin leaves the factored matrix in
exactly the layout the solves want.  Three execution strategies are
modelled, matching Fig. 12's bars:

* **CSR-LS** — the traditional level-set solve with an OpenMP barrier
  between levels (the comparison baseline of Park et al.'s setting);
* **LS** — Javelin's point-to-point sparsified synchronization over the
  same level sets (upper stage only, lower rows appended to the last
  levels);
* **LS + Lower** — the two-stage schedule: p2p levels for the upper
  rows, then the lower rows processed with the SR tiles as vectorized
  segmented spmv updates (or ER blocks) and a small corner solve.

The forward solve (unit-diagonal L) shares the factorization's
dependency structure; the backward solve (U) runs the mirrored level
structure computed on the strict-upper pattern.

Numeric solves are plain sequential sweeps on the combined L\\U factor;
the simulate_* functions replay the strategy on a
:class:`~repro.machine.SimMachine` and return the modelled time.
"""

from __future__ import annotations

import numpy as np

from ..machine.core import SimMachine
from ..sparse.csr import CSRMatrix
from ..ordering.levelsets import LevelSets
from ..kernels import backward_level_sets, cached_analysis, get_kernel
from .symbolic import row_solve_costs

__all__ = [
    "trisolve_lower_serial",
    "trisolve_upper_serial",
    "trisolve_factor",
    "trisolve_factor_levels",
    "trisolve_factor_multi",
    "LevelizedTriangularSolver",
    "simulate_trisolve_barrier",
    "simulate_trisolve_p2p",
    "simulate_trisolve_two_stage",
    "simulate_trisolve_superstep",
    "simulate_trisolve_elastic",
    "simulate_trisolve_syncfree",
]


# ----------------------------------------------------------------------
# numeric sweeps
# ----------------------------------------------------------------------
def trisolve_lower_serial(F: CSRMatrix, b):
    """Forward solve ``L y = b`` on the combined factor (unit diagonal).

    The scalar reference backend of the ``trisolve_lower`` kernel: its
    per-row, ascending-column accumulation order is the contract the
    level-batched backend reproduces bit-for-bit.
    """
    return get_kernel("trisolve_lower", "scalar")(F, b)


def trisolve_upper_serial(F: CSRMatrix, y):
    """Backward solve ``U x = y`` on the combined factor (scalar reference)."""
    return get_kernel("trisolve_upper", "scalar")(F, y)


def trisolve_factor(F: CSRMatrix, b):
    """Apply the full preconditioner solve ``x = U⁻¹ L⁻¹ b`` (scalar)."""
    return trisolve_upper_serial(F, trisolve_lower_serial(F, b))


def trisolve_factor_levels(F: CSRMatrix, b, *, analysis=None):
    """Level-batched ``x = U⁻¹ L⁻¹ b`` — bit-identical to :func:`trisolve_factor`."""
    if analysis is None:
        analysis = cached_analysis(F)
    y = get_kernel("trisolve_lower", "batched")(F, b, plan=analysis.plan("lower"))
    return get_kernel("trisolve_upper", "batched")(F, y, plan=analysis.plan("upper"))


def trisolve_factor_multi(F: CSRMatrix, B, *, analysis=None, backend=None):
    """Multi-RHS ``X = U⁻¹ L⁻¹ B`` on a 2-D block ``B`` of shape ``(n, k)``.

    Column ``j`` of the result is bit-identical to
    ``trisolve_factor_levels(F, B[:, j])`` (and so to the scalar
    reference) — the multi-RHS kernels keep each column's accumulation
    order unchanged and only amortize the per-level dispatch across the
    block.  This is the warm-path kernel behind
    :mod:`repro.serve`'s micro-batched preconditioner applies.
    """
    if analysis is None:
        analysis = cached_analysis(F)
    Y = get_kernel("trisolve_lower_multi", backend)(F, B, plan=analysis.plan("lower"))
    return get_kernel("trisolve_upper_multi", backend)(F, Y, plan=analysis.plan("upper"))


# ----------------------------------------------------------------------
# vectorized level-sweep solver
# ----------------------------------------------------------------------
class LevelizedTriangularSolver:
    """Vectorized level-sweep solves over a factored matrix.

    The numeric counterpart of the parallel stri: rows of one level are
    independent, so each level solves as *one* batched gather-multiply-
    segmented-reduce instead of a Python-level loop per row — the
    closest a pure-NumPy implementation gets to the vector-lane
    execution the paper targets.  The per-level plans come from the
    pattern-keyed symbolic cache, built once (vectorized, no per-row
    Python loop) and reused across the thousands of solves an
    ILU-preconditioned Krylov run performs (§VI's amortization
    argument).

    Results are bit-identical to the scalar reference sweeps
    (:func:`trisolve_lower_serial` / :func:`trisolve_upper_serial`): the
    batched segment reduction adds entries in exactly the scalar
    ascending-column order.
    """

    def __init__(self, F: CSRMatrix):
        self.F = F
        analysis = cached_analysis(F)
        # plan construction validates the diagonal and raises the same
        # "missing diagonal in factored row" error the sweeps would
        self._fwd_plan = analysis.plan("lower")
        self._bwd_plan = analysis.plan("upper")
        self.analysis = analysis

    def forward(self, b):
        """Solve ``L y = b`` (unit diagonal), one vector op per level."""
        return get_kernel("trisolve_lower", "batched")(self.F, b, plan=self._fwd_plan)

    def backward(self, y):
        """Solve ``U x = y``, one vector op per level."""
        return get_kernel("trisolve_upper", "batched")(self.F, y, plan=self._bwd_plan)

    def solve(self, b):
        """Apply the preconditioner: ``x = U⁻¹ L⁻¹ b``."""
        return self.backward(self.forward(b))

    def solve_multi(self, B):
        """Multi-RHS apply on a 2-D block ``B`` of shape ``(n, k)``.

        Bit-identical per column to :meth:`solve` — see
        :func:`trisolve_factor_multi` for the contract.
        """
        Y = get_kernel("trisolve_lower_multi")(self.F, B, plan=self._fwd_plan)
        return get_kernel("trisolve_upper_multi")(self.F, Y, plan=self._bwd_plan)


# ----------------------------------------------------------------------
# simulated sweeps
# ----------------------------------------------------------------------
def _sweep_barrier(machine, groups, flops, touched, start_time):
    """Barrier-per-level sweep over ``groups`` (lists of row ids)."""
    clock = float(start_time)
    p = machine.n_threads
    for gi, rows in enumerate(groups):
        thread_time = np.full(p, clock)
        for k, r in enumerate(rows):
            t = k % p
            thread_time[t] += machine.work_time(flops[r], touched[r], thread=t)
        clock = float(thread_time.max())
        if gi < len(groups) - 1:
            clock += machine.barrier_cost()
    return clock


def _sweep_p2p(machine, groups, deps_of, flops, touched, start_time):
    """P2p sweep: continuous dealing, spin-waits instead of barriers."""
    p = machine.n_threads
    thread_time = np.full(p, float(start_time))
    finish = {}
    owner = {}
    k = 0
    for rows in groups:
        for r in rows:
            owner[int(r)] = k % p
            k += 1
    for rows in groups:
        for r in rows:
            r = int(r)
            t = owner[r]
            start = thread_time[t]
            producers = {}
            for d in deps_of(r):
                d = int(d)
                if d not in finish:
                    continue
                u = owner[d]
                if u == t:
                    continue
                producers[u] = max(producers.get(u, 0.0), finish[d])
            for u, ft in producers.items():
                start = max(start, ft + machine.sync_latency(t, u))
            stop = start + machine.work_time(flops[r], touched[r], thread=t)
            finish[r] = stop
            thread_time[t] = stop
    return float(thread_time.max()) if len(finish) else float(start_time)


def simulate_trisolve_barrier(S: CSRMatrix, levels: LevelSets, machine: SimMachine, *, both=True):
    """CSR-LS: barrier level-set solve (forward, plus backward if both)."""
    fl, tl = row_solve_costs(S, part="lower")
    groups = [list(levels.level_rows(l)) for l in range(levels.n_levels)]
    t = _sweep_barrier(machine, groups, fl, tl, 0.0)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        bl = backward_level_sets(S)
        groups_b = [list(bl.level_rows(l)) for l in range(bl.n_levels)]
        t = _sweep_barrier(machine, groups_b, fu, tu, t + machine.barrier_cost())
    return t


def simulate_trisolve_p2p(S: CSRMatrix, levels: LevelSets, machine: SimMachine, *, both=True):
    """LS: point-to-point level-scheduled solve on the whole matrix."""
    fl, tl = row_solve_costs(S, part="lower")
    groups = [list(levels.level_rows(l)) for l in range(levels.n_levels)]

    def fdeps(r):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        return cols[cols < r]

    t = _sweep_p2p(machine, groups, fdeps, fl, tl, 0.0)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        bl = backward_level_sets(S)
        groups_b = [list(bl.level_rows(l)) for l in range(bl.n_levels)]

        def bdeps(r):
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            return cols[cols > r]

        t = _sweep_p2p(machine, groups_b, bdeps, fu, tu, t + machine.barrier_cost())
    return t


def simulate_trisolve_two_stage(
    S: CSRMatrix,
    level_ptr,
    m,
    machine: SimMachine,
    *,
    tile_size=64,
    both=True,
):
    """LS + Lower: p2p upper levels, tiled/vectorized lower block.

    The lower rows' sub-diagonal entries are swept as segmented spmv
    tiles (vectorized, one task per tile batch per level — the stri
    payoff of building SR's structure during factorization), followed by
    a dense-ish corner solve.
    """
    n = S.n_rows
    fl, tl = row_solve_costs(S, part="lower")
    # ---- forward: upper rows via p2p within their levels
    groups = [
        list(range(int(level_ptr[l]), int(level_ptr[l + 1])))
        for l in range(len(level_ptr) - 1)
    ]

    def fdeps(r):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        return cols[cols < min(r, m)]

    t = _sweep_p2p(machine, groups, fdeps, fl, tl, 0.0)
    # ---- forward: lower block as vectorized tile updates + corner
    lower_entries = 0
    corner_flops = 0.0
    corner_touch = 0.0
    for r in range(m, n):
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        lower_entries += int(np.count_nonzero(cols < m))
        cc = int(np.count_nonzero((cols >= m) & (cols < r)))
        corner_flops += 2.0 * cc
        corner_touch += cc + 2
    if lower_entries:
        n_tiles = -(-lower_entries // tile_size)
        per_thread_tiles = -(-n_tiles // machine.n_threads)
        tile_time = machine.work_time(
            2.0 * tile_size, tile_size, thread=0, vectorized=True
        )
        t += per_thread_tiles * tile_time + machine.barrier_cost()
    if corner_flops:
        t += machine.work_time(corner_flops, corner_touch, thread=0)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        bl = backward_level_sets(S)
        groups_b = [list(bl.level_rows(l)) for l in range(bl.n_levels)]

        def bdeps(r):
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            return cols[cols > r]

        # the backward sweep reuses the same tiled structure for the
        # lower rows; model it with the p2p sweep whose first levels are
        # the (cheap, wide) lower rows
        t = _sweep_p2p(machine, groups_b, bdeps, fu, tu, t + machine.barrier_cost())
    return t


def simulate_trisolve_superstep(
    S: CSRMatrix,
    machine: SimMachine,
    *,
    opts=None,
    both=True,
    backend=None,
):
    """Superstep solve: fused multi-level partitions, one barrier each.

    Plans come from the pattern-keyed symbolic cache (so repeated
    simulations of one pattern reuse the DAG partition); the DES itself
    is the ``superstep_sim`` kernel from the dispatch registry.
    """
    analysis = cached_analysis(S)
    sim = get_kernel("superstep_sim", backend)
    fl, tl = row_solve_costs(S, part="lower")
    plan_l = analysis.superstep_plan(
        "lower", n_threads=machine.n_threads, opts=opts
    )
    t, _, _ = sim(S, machine, plan_l, fl, tl)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        plan_u = analysis.superstep_plan(
            "upper", n_threads=machine.n_threads, opts=opts
        )
        t, _, _ = sim(
            S, machine, plan_u, fu, tu, start_time=t + machine.barrier_cost()
        )
    return t


def simulate_trisolve_elastic(
    S: CSRMatrix,
    machine: SimMachine,
    *,
    opts=None,
    both=True,
    events=None,
):
    """Stale-synchronous solve: blocks race, correction sweeps repair."""
    from ..sched.elastic import simulate_elastic
    from ..sched.options import SchedOptions

    if opts is None:
        opts = SchedOptions()
    analysis = cached_analysis(S)
    fl, tl = row_solve_costs(S, part="lower")
    sched_l = analysis.elastic_schedule("lower", staleness=opts.staleness)
    t = simulate_elastic(
        S, sched_l, machine, fl, tl, max_sweeps=opts.max_sweeps, events=events
    )
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        sched_u = analysis.elastic_schedule("upper", staleness=opts.staleness)
        t = simulate_elastic(
            S, sched_u, machine, fu, tu,
            start_time=t + machine.barrier_cost(),
            max_sweeps=opts.max_sweeps,
            events=events,
        )
    return t


def simulate_trisolve_syncfree(
    S: CSRMatrix,
    machine: SimMachine,
    *,
    both=True,
    trace=None,
):
    """Sync-free self-scheduled solve (GPU-style flag polling, no levels)."""
    from ..sched.syncfree import simulate_syncfree

    fl, tl = row_solve_costs(S, part="lower")
    t, _, trace = simulate_syncfree(S, machine, fl, tl, part="lower", trace=trace)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        # the stage hand-off is one device-wide flush, not per-level
        t, _, trace = simulate_syncfree(
            S, machine, fu, tu, part="upper",
            start_time=t + machine.barrier_cost(), trace=trace,
        )
    return t
