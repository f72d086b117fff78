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

The numeric solves live in :mod:`repro.kernels.trisolve`: the scalar
reference ``trisolve_factor`` and the reusable apply ``factor_solver``,
which lays the factor out for the sweeps once.

The simulate_* functions replay the strategy on a
:class:`~repro.machine.SimMachine` and return the modelled time.  Each
strategy is a row order plus a row→thread map handed to the DES sweep
:func:`repro.core.upper.simulate_sweep` — CSR-LS with one barrier step
per level and each level dealt from thread 0 (the ``superstep_sim``
kernel), LS and LS + Lower point-to-point with positions dealt
round-robin (the ``upper_p2p_sim`` kernel).  This module adds only
LS + Lower's tile and corner charges, and :func:`simulate_sweeps`, the
forward-then-backward frame every scheduler's ``simulate`` shares.
"""

from __future__ import annotations

import numpy as np

from ..machine.core import SimMachine
from ..sparse.csr import CSRMatrix
from ..ordering.levelsets import LevelSets
from ..kernels import backward_level_sets
from .symbolic import row_solve_costs
from .upper import simulate_sweep

__all__ = [
    "simulate_trisolve_barrier",
    "simulate_trisolve_p2p",
    "simulate_trisolve_two_stage",
    "simulate_sweeps",
]


# ----------------------------------------------------------------------
# simulated sweeps
# ----------------------------------------------------------------------
def simulate_sweeps(S: CSRMatrix, machine: SimMachine, sweep, *, both=True):
    """Forward sweep, then (``both``) the backward sweep one barrier later.

    ``sweep(part, flops, touched, start_time)`` returns the end time of
    one ``part`` sweep priced with :func:`row_solve_costs`.
    """
    fl, tl = row_solve_costs(S, part="lower")
    t = sweep("lower", fl, tl, 0.0)
    if both:
        fu, tu = row_solve_costs(S, part="upper")
        t = sweep("upper", fu, tu, t + machine.barrier_cost())
    return t


def _ls_sweep(S, machine, forward_order):
    """LS: rows in level order, dealt continuously (position mod p).

    The forward sweep runs ``forward_order``; the backward sweep the
    mirrored levels of the strict-upper pattern.
    """

    def sweep(part, flops, touched, start_time):
        order = forward_order if part == "lower" else backward_level_sets(S).rows
        thread_of = np.arange(len(order)) % machine.n_threads
        return simulate_sweep(
            S, machine, order, thread_of, flops, touched, part=part, start_time=start_time
        )[0]

    return sweep


def simulate_trisolve_barrier(S: CSRMatrix, levels: LevelSets, machine: SimMachine, *, both=True):
    """CSR-LS: barrier level-set solve (forward, plus backward if both).

    Each level deals its rows from thread 0 again (``k % p`` for the
    level's ``k``-th row).
    """

    def sweep(part, flops, touched, start_time):
        ls = levels if part == "lower" else backward_level_sets(S)
        first = np.repeat(ls.level_ptr[:-1], np.diff(ls.level_ptr))
        thread_of = (np.arange(ls.n_rows) - first) % machine.n_threads
        return simulate_sweep(
            S, machine, ls.rows, thread_of, flops, touched,
            steps=ls.level_ptr, part=part, start_time=start_time,
        )[0]

    return simulate_sweeps(S, machine, sweep, both=both)


def simulate_trisolve_p2p(S: CSRMatrix, levels: LevelSets, machine: SimMachine, *, both=True):
    """LS: point-to-point level-scheduled solve on the whole matrix."""
    return simulate_sweeps(S, machine, _ls_sweep(S, machine, levels.rows), both=both)


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
    a dense-ish corner solve.  The backward sweep reuses the same tiled
    structure for the lower rows; it is modelled as LS's p2p sweep,
    whose first levels are the (cheap, wide) lower rows.
    """
    ls_sweep = _ls_sweep(S, machine, np.arange(int(level_ptr[-1])))

    def sweep(part, flops, touched, start_time):
        t = ls_sweep(part, flops, touched, start_time)
        if part != "lower":
            return t
        # the lower block as vectorized tile updates + corner
        n = S.n_rows
        row = np.repeat(np.arange(n), np.diff(S.indptr))
        cols, row = S.indices[row >= m], row[row >= m]
        lower_entries = int(np.count_nonzero(cols < m))
        corner = int(np.count_nonzero((cols >= m) & (cols < row)))
        if lower_entries:
            n_tiles = -(-lower_entries // tile_size)
            per_thread_tiles = -(-n_tiles // machine.n_threads)
            tile_time = machine.work_time(
                2.0 * tile_size, tile_size, thread=0, vectorized=True
            )
            t += per_thread_tiles * tile_time + machine.barrier_cost()
        if corner:
            t += machine.work_time(2.0 * corner, float(corner + 2 * (n - m)), thread=0)
        return t

    return simulate_sweeps(S, machine, sweep, both=both)
