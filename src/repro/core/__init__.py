"""Javelin's core: the two-stage parallel incomplete LU framework.

Layout mirrors §III of the paper:

* :mod:`symbolic` — predetermine the sparsity pattern ``S`` (ILU(k)
  level-of-fill, ILU(0) = pattern of A) plus the per-row cost model the
  machine simulator charges;
* :mod:`iluk` — the sequential up-looking factorization of Fig. 1,
  the numerical reference every parallel path must match bit-for-bit,
  and ``ilu_factor``, the same row loop as one compiled call;
* :mod:`ilut` — threshold dropping ILU(τ), the combined ILU(k, τ), and
  modified ILU (MILU) compensation;
* :mod:`schedule` — the two-stage partition: which levels stay in the
  level-scheduled upper stage, which rows move to the end for the lower
  stage, and the ER-vs-SR choice;
* :mod:`upper` — the upper stage: level scheduling with point-to-point
  synchronizations (and the barrier variant for comparison);
* :mod:`lower_er`, :mod:`lower_sr` — the Even-Rows and Segmented-Rows
  lower-stage orders (partition and simulation; the numeric factor is
  the ``ilu_factor`` kernel, with the bits of the :func:`iluk.factor_row`
  loop, whatever the order);
* :mod:`trisolve` — the simulated triangular solves co-designed with
  the factorization (barrier CSR-LS, p2p LS, LS+Lower); the numeric
  sweeps are :mod:`repro.kernels.trisolve`;
* :mod:`javelin` — the user-facing :class:`JavelinILU` façade.
"""

from .symbolic import ilu0_pattern, iluk_pattern, row_factor_costs, row_solve_costs
from .breakdown import FactorizationBreakdown, classify_pivot
from .iluk import (
    ilu_factor_sequential,
    ilu0_factor,
    iluk_factor,
    PivotBreakdownError,
)
from .ilut import ilut_factor, iluk_tau_factor
from .schedule import TwoStageSchedule, ScheduleOptions, build_schedule, rows_moved_for_alpha
from .upper import simulate_upper_p2p, simulate_upper_barrier
from .lower_er import EvenRows, simulate_lower_er
from .lower_sr import SegmentedRows, simulate_lower_sr
from .trisolve import (
    simulate_trisolve_barrier,
    simulate_trisolve_p2p,
    simulate_trisolve_two_stage,
)
from .javelin import JavelinILU, JavelinOptions, FactorResult
from .ichol import ichol_factor, ichol_shifted, ichol_solve, ICholBreakdownError
from .diagnostics import (
    row_residual_norms,
    pivot_growth,
    condest_preconditioned,
    verify_row,
    scan_for_corruption,
)
from .symbolic_parallel import iluk_pattern_rowwise, simulate_symbolic_parallel

__all__ = [
    "ilu0_pattern",
    "iluk_pattern",
    "row_factor_costs",
    "row_solve_costs",
    "ilu_factor_sequential",
    "ilu0_factor",
    "iluk_factor",
    "PivotBreakdownError",
    "FactorizationBreakdown",
    "classify_pivot",
    "ilut_factor",
    "iluk_tau_factor",
    "TwoStageSchedule",
    "ScheduleOptions",
    "build_schedule",
    "rows_moved_for_alpha",
    "simulate_upper_p2p",
    "simulate_upper_barrier",
    "EvenRows",
    "simulate_lower_er",
    "SegmentedRows",
    "simulate_lower_sr",
    "simulate_trisolve_barrier",
    "simulate_trisolve_p2p",
    "simulate_trisolve_two_stage",
    "JavelinILU",
    "JavelinOptions",
    "FactorResult",
    "ichol_factor",
    "ichol_shifted",
    "ichol_solve",
    "ICholBreakdownError",
    "row_residual_norms",
    "pivot_growth",
    "condest_preconditioned",
    "verify_row",
    "scan_for_corruption",
    "iluk_pattern_rowwise",
    "simulate_symbolic_parallel",
]
