"""JavelinILU: the user-facing incomplete-factorization framework.

Typical use::

    from repro import JavelinILU, haswell
    ilu = JavelinILU()                 # ILU(0), auto two-stage schedule
    ilu.setup(A)                       # symbolic: pattern + level permutation
    res = ilu.factor()                 # numeric: bit-identical to sequential
    x = ilu.solve(b)                   # x = U^-1 L^-1 b (preconditioner apply)

    from repro.machine import SimMachine
    rep = ilu.simulate_factor(SimMachine(haswell(), 14))   # modelled time
    t_stri = ilu.simulate_trisolve(SimMachine(haswell(), 14), method="two_stage")

``setup`` performs the paper's preprocessing (§III): predetermine the
fill pattern (ILU(k)), level-schedule ``lower(S + Sᵀ)``, split into the
two stages, and symmetrically permute the matrix into the level
ordering.  ``factor`` runs :func:`~repro.core.iluk.ilu_factor` (plus
the ILU(k, τ) drop hook) on the permuted matrix: the row-by-row
:func:`~repro.core.iluk.factor_row` loop as one compiled call, with its
bits.  Every stage
order — the p2p upper levels, Even-Rows, Segmented-Rows — eliminates
each row's columns in ascending order, so each gives those same bits,
and the orders themselves run in the threaded executor
(:mod:`repro.runtime`) and the ``simulate_*`` replays.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..machine.core import SimMachine
from ..machine.trace import ExecutionTrace
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import has_full_diagonal
from .symbolic import ilu0_pattern, iluk_pattern, row_factor_costs_split
from ..kernels import cached_analysis
from ..kernels.trisolve import apply_maps, factor_solver
from ..kernels.cache import frozen_pattern, pattern_fingerprint, require_pattern
from .schedule import ScheduleOptions, build_schedule
from .upper import simulate_upper_p2p, simulate_upper_barrier
from .iluk import ilu_factor, scatter_slots
from .lower_er import simulate_lower_er
from .lower_sr import SegmentedRows, simulate_lower_sr
from .trisolve import (
    simulate_trisolve_barrier,
    simulate_trisolve_p2p,
    simulate_trisolve_two_stage,
)
from ..sparse.pattern import symmetrize_pattern

__all__ = ["JavelinOptions", "FactorResult", "SimReport", "JavelinILU"]


@dataclass(frozen=True)
class JavelinOptions:
    """All user knobs in one place.

    ``fill_level`` selects ILU(k); ``tau`` adds fixed-pattern numerical
    dropping on top (the framework's ILU(k, τ): entries below
    ``τ·‖A[i,:]‖₂`` are zeroed at row completion, storage retained so
    the schedule and stri structure are untouched); ``modified`` adds
    MILU compensation; ``schedule`` carries the two-stage partition
    options (α, density factor, lower method, A vs A+Aᵀ); ``tile_size``
    is the SR tile size; ``pivot_tol`` aborts on tiny pivots (Javelin
    does not pivot).
    """

    fill_level: int = 0
    tau: float = 0.0  # ILU(k, τ): fixed-pattern numerical dropping
    modified: bool = False  # MILU compensation of dropped mass
    schedule: ScheduleOptions = field(default_factory=ScheduleOptions)
    tile_size: int = 64
    pivot_tol: float = 0.0

    def with_(self, **kw):
        return replace(self, **kw)


@dataclass
class FactorResult:
    """Outcome of the numeric factorization (permuted space)."""

    F: CSRMatrix  # combined L\\U factor of P A Pᵀ
    perm: np.ndarray  # gather permutation (new ← old)
    inv_perm: np.ndarray

    def factor_in_original_order(self):
        """The factor permuted back to the input row/column numbering."""
        return self.F.permute(row_perm=self.inv_perm, col_perm=self.inv_perm)


@dataclass
class SimReport:
    """Simulated execution times (seconds) of one factorization.

    ``trace`` is the upper-stage (or LS-only) timeline; ``lower_trace``
    carries the ER/SR lower stage when a two-stage schedule ran, so
    exporters (:mod:`repro.obs.chrome_trace`) can show the full
    upper+lower timeline instead of silently dropping the second stage.
    """

    total: float
    upper: float
    lower: float
    method: str
    n_threads: int
    trace: ExecutionTrace | None = None
    lower_trace: ExecutionTrace | None = None


class JavelinILU:
    """Two-stage parallel ILU preconditioner framework."""

    def __init__(self, options: JavelinOptions | None = None):
        self.options = options or JavelinOptions()
        self._ready = False
        self._factored = False
        self._apply = None

    # ------------------------------------------------------------------
    # symbolic phase
    # ------------------------------------------------------------------
    def setup(self, A: CSRMatrix, *, n_threads: int | None = None):
        """Pattern, level schedule, two-stage split, and permutation.

        ``n_threads`` (optional) lets the automatic ER/SR choice resolve
        now; otherwise it resolves per simulation call.
        """
        if A.n_rows != A.n_cols:
            raise ValueError("Javelin requires a square matrix")
        if not has_full_diagonal(A):
            raise ValueError(
                "matrix needs a structurally full diagonal; apply a "
                "Dulmage-Mendelsohn row permutation first "
                "(repro.ordering.dulmage_mendelsohn_row_perm)"
            )
        opts = self.options
        S = (
            ilu0_pattern(A)
            if opts.fill_level == 0
            else iluk_pattern(A, opts.fill_level).pattern_copy()
        )
        self.schedule = build_schedule(S, opts.schedule, n_threads=n_threads)
        self.perm = self.schedule.permutation()
        self.inv_perm = np.empty_like(self.perm)
        self.inv_perm[self.perm] = np.arange(self.perm.shape[0])
        # P A Pᵀ once, on entry numbers: its pattern, and the source of
        # each of its entries in A (exact in float64 below 2**53 entries)
        numbered = CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices,
                             np.arange(A.nnz, dtype=np.float64), sort=False, check=False)
        P = numbered.permute(row_perm=self.perm, col_perm=self.perm)
        self._perm_pattern = frozen_pattern(P)
        self._perm_src = P.data.astype(np.int64)
        self.A_perm = self._permuted(A)
        # ILU(0)'s S is A's pattern (the diagonal is full), so it needs no second sort
        self.S_perm = (
            self.A_perm.pattern_copy()
            if opts.fill_level == 0
            else S.permute(row_perm=self.perm, col_perm=self.perm).pattern_copy()
        )
        self._slots = scatter_slots(self.S_perm, self.A_perm)
        # the factor's symbolic products: F has S_perm's pattern, so factor,
        # refactor and build_solver reuse this without hashing F again
        self.analysis = cached_analysis(self.S_perm)
        self.level_ptr = self.schedule.upper_level_ptr()
        self.m = self.schedule.n_upper_rows
        self.pattern_key = pattern_fingerprint(A)
        self._set_drop_threshold()
        self._split_costs = None
        self._maps = None  # apply_maps of (analysis, perm), composed on the first build_solver
        self._ready = True
        self._factored = False
        self._apply = None
        return self

    def _permuted(self, A):
        """``P A Pᵀ`` of a matrix on the setup pattern: one gather of ``A.data``."""
        n = self.perm.shape[0]
        indptr, indices = self._perm_pattern
        return CSRMatrix(n, n, indptr, indices, A.data[self._perm_src], sort=False, check=False)

    def _set_drop_threshold(self):
        """Value-dependent ILU(k, τ) thresholds of the current ``A_perm``."""
        if self.options.tau > 0.0:
            norms = np.zeros(self.A_perm.n_rows)
            for r in range(self.A_perm.n_rows):
                _, vals = self.A_perm.row(r)
                norms[r] = np.sqrt(np.sum(vals * vals))
            self.drop_threshold = self.options.tau * norms
        else:
            self.drop_threshold = None

    def refactor(self, A: CSRMatrix) -> FactorResult:
        """Value-only re-factorization: new values, same sparsity pattern.

        The time-evolving regime the framework targets — Newton loops,
        implicit time-steppers — re-factors the *same* pattern for
        thousands of steps with drifting values.  Everything
        :meth:`setup` computes is a pure function of the pattern (fill
        pattern, level schedule, two-stage split, permutation), so a
        value change needs none of it.  Two maps made at setup move the
        values: the source in ``A`` of each entry of ``A_perm`` (so
        ``A_perm.data`` is one gather, and ``A_perm`` stays whole for
        the ILU(k, τ) thresholds and any other reader) and the slot of
        each entry of ``A_perm`` in ``S_perm`` (so the factor's values
        are one scatter into zeros).  No sort and no search runs; the
        numeric phase runs against the cached symbolic products.

        Contract: the result is **bitwise identical** to
        ``JavelinILU(options).setup(A).factor()`` on the same
        ``A`` — value-only reuse is a cost optimization, never a
        numerical one.  Raises ``ValueError`` when ``A``'s pattern
        differs from the setup pattern (call :meth:`setup` instead).
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before refactor()")
        require_pattern(A, self.pattern_key)
        self.A_perm = self._permuted(A)
        self._set_drop_threshold()
        return self.factor()

    # ------------------------------------------------------------------
    # numeric phase
    # ------------------------------------------------------------------
    def resolved_lower_method(self, n_threads=None):
        """The lower-stage order ("er" | "sr" | "none") for ``n_threads``.

        Resolves the schedule's "auto" choice: Even-Rows when the lower
        rows are at least the thread count (or the count is unknown),
        else Segmented-Rows.  It decides what the simulations and the
        CLI report; the numeric factor is the same for every choice.
        """
        method = self.schedule.chosen_lower_method
        if method == "auto":
            if self.schedule.n_lower_rows == 0:
                return "none"
            if n_threads is None:
                return "er"
            return "er" if self.schedule.n_lower_rows >= n_threads else "sr"
        return method

    def factor(self) -> FactorResult:
        """Numeric factorization: :func:`~repro.core.iluk.ilu_factor` on ``A_perm``.

        It runs Fig. 1's row loop as one compiled call, dropping each
        row (ILU(k, τ), when ``tau > 0``) once it is done; its bits are
        those of the row loop
        :func:`~repro.core.iluk.ilu_factor_sequential` on
        ``(A_perm, S_perm)`` with the same drop thresholds.  The
        lower-stage choice does not enter: every stage order gives these
        bits (the threaded executor runs the ER order).
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before factor()")
        opts = self.options
        F = ilu_factor(
            self.A_perm,
            self.S_perm,
            pivot_tol=opts.pivot_tol,
            drop_threshold=self.drop_threshold,
            modified=opts.modified,
            analysis=self.analysis,
            slots=self._slots,
        )
        self.F = F
        self._factored = True
        self._apply = None  # values changed; sweeps rebind on next solve
        self.result = FactorResult(F=F, perm=self.perm, inv_perm=self.inv_perm)
        return self.result

    # ------------------------------------------------------------------
    # preconditioner application
    # ------------------------------------------------------------------
    def solve(self, b):
        """Apply the preconditioner: ``x ≈ A⁻¹ b`` via L/U sweeps.

        Runs the apply of :meth:`build_solver`, built on first use after
        each :meth:`factor` — both the convenient and the fast path.
        """
        if not self._factored:
            raise RuntimeError("call factor() before solve()")
        if self._apply is None:
            self._apply = self.build_solver()
        return self._apply(b)

    def build_solver(self):
        """A fast reusable preconditioner apply: ``apply(B) -> X``.

        ``B`` is a vector ``(n,)`` or a block ``(n, k)`` in the original
        row order.  :func:`~repro.kernels.trisolve.factor_solver` lays
        the factor out for the sweeps once, on plans from the
        pattern-keyed symbolic cache, and folds the permutation into the
        sweeps' gathers, so each of the thousands of applies a Krylov
        loop performs (§VI) is two level sweeps.  Column ``j`` of a
        block apply is bit-identical to the apply of ``B[:, j]``, and to
        :meth:`solve`.  The apply keeps this factor's values through a
        later :meth:`refactor`.
        """
        if not self._factored:
            raise RuntimeError("call factor() before build_solver()")
        if self._maps is None:
            self._maps = apply_maps(self.analysis, self.perm)
        return factor_solver(self.F, self.analysis, maps=self._maps)

    # the serving layer's name for the same apply (a block of requests)
    build_multi_solver = build_solver

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------
    def _factor_split_costs(self):
        if self._split_costs is None:
            self._split_costs = row_factor_costs_split(self.S_perm, self.m)
        return self._split_costs

    def _full_level_ptr(self):
        """Level boundaries covering *all* rows (lower rows re-leveled).

        Used by the LS-only simulations, where no rows are excluded: the
        schedule's own level sets already cover every row.
        """
        return cached_analysis(symmetrize_pattern(self.S_perm)).levels("lower")

    def simulate_factor(
        self,
        machine: SimMachine,
        *,
        sync="p2p",
        lower: bool | None = None,
        tasking_runtime="openmp",
        numa_aware_er=False,
        sched_policy="static",
        sched_chunk=1,
        fault_plan=None,
        fault_report=None,
    ) -> SimReport:
        """Modelled factorization time on a simulated machine.

        ``sync`` is "p2p" (Javelin) or "barrier" (traditional level
        scheduling); any other value raises ``ValueError``.
        ``lower=False`` forces the LS-only configuration (every row
        level-scheduled); ``lower=True``/None uses the two-stage
        schedule with the resolved ER/SR method.
        ``tasking_runtime`` ("openmp" | "lightweight") selects the SR
        task model; ``numa_aware_er`` applies §V's proposed first-touch
        blocking to the ER stage; ``sched_policy``/``sched_chunk``
        select static dealing vs OpenMP DYNAMIC(chunk) self-scheduling
        (the paper's §IV configuration) for the level-scheduled rows.
        ``fault_plan``/``fault_report`` inject machine faults into the
        p2p DES and report what fired (see ``repro.resilience``); for
        straggler slowdowns to apply, construct the machine itself with
        the plan (``SimMachine(spec, p, fault_plan=plan)``).  These four
        options apply only to ``sync="p2p"``; passing a non-default one
        with ``sync="barrier"`` raises ``ValueError``.
        """
        if sync not in ("p2p", "barrier"):
            raise ValueError(f"unknown sync model {sync!r}; use 'p2p' or 'barrier'")
        upper_kw = {
            "policy": sched_policy,
            "chunk": sched_chunk,
            "fault_plan": fault_plan,
            "fault_report": fault_report,
        }
        sim_upper = simulate_upper_p2p
        if sync == "barrier":
            defaults = {"policy": "static", "chunk": 1, "fault_plan": None, "fault_report": None}
            if upper_kw != defaults:
                raise ValueError(
                    "sched_policy, sched_chunk, fault_plan and fault_report "
                    "apply only to sync='p2p'"
                )
            sim_upper, upper_kw = simulate_upper_barrier, {}
        # full-row costs from the one split at m: exact sums of integer counts
        (fl, tl), (fc, tc) = self._factor_split_costs()
        flops, touched = fl + fc, tl + tc
        use_lower = (
            self.schedule.n_lower_rows > 0 if lower is None else bool(lower)
        ) and self.schedule.n_lower_rows > 0
        if not use_lower:
            ls = self._full_level_ptr()
            # rows are already in level order, so ls.level_ptr applies
            makespan, _finish, trace = sim_upper(
                self.S_perm, ls.level_ptr, machine, flops, touched, **upper_kw
            )
            return SimReport(
                total=makespan,
                upper=makespan,
                lower=0.0,
                method="none",
                n_threads=machine.n_threads,
                trace=trace,
            )
        method = self.resolved_lower_method(machine.n_threads)
        makespan_u, _finish, trace = sim_upper(
            self.S_perm, self.level_ptr, machine, flops, touched, **upper_kw
        )
        if method == "er" or method == "none":
            total, trace2 = simulate_lower_er(
                self.S_perm,
                self.m,
                machine,
                self._factor_split_costs(),
                start_time=makespan_u,
                numa_aware=numa_aware_er,
            )
        else:
            sr = SegmentedRows.build(
                self.S_perm, self.m, self.level_ptr, tile_size=self.options.tile_size
            )
            total, trace2 = simulate_lower_sr(
                self.S_perm,
                sr,
                machine,
                self._factor_split_costs()[1],
                start_time=makespan_u,
                runtime=tasking_runtime,
            )
        return SimReport(
            total=total,
            upper=makespan_u,
            lower=total - makespan_u,
            method=method,
            n_threads=machine.n_threads,
            trace=trace,
            lower_trace=trace2,
        )

    def simulate_trisolve(self, machine: SimMachine, *, method="two_stage", both=True):
        """Modelled triangular-solve time: 'barrier' | 'p2p' | 'two_stage'."""
        if method == "barrier":
            ls = self._full_level_ptr()
            return simulate_trisolve_barrier(self.S_perm, ls, machine, both=both)
        if method == "p2p":
            ls = self._full_level_ptr()
            return simulate_trisolve_p2p(self.S_perm, ls, machine, both=both)
        if method == "two_stage":
            if self.schedule.n_lower_rows == 0:
                ls = self._full_level_ptr()
                return simulate_trisolve_p2p(self.S_perm, ls, machine, both=both)
            return simulate_trisolve_two_stage(
                self.S_perm,
                self.level_ptr,
                self.m,
                machine,
                tile_size=self.options.tile_size,
                both=both,
            )
        raise ValueError(f"unknown trisolve method {method!r}")

    # ------------------------------------------------------------------
    def stats(self):
        """Structural summary of the schedule (for reports and tests)."""
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        return {
            "n": self.S_perm.n_rows,
            "nnz_pattern": self.S_perm.nnz,
            "n_levels": self.schedule.levels.n_levels,
            "n_upper_levels": self.schedule.n_upper_levels,
            "n_lower_rows": self.schedule.n_lower_rows,
            "lower_method": self.schedule.chosen_lower_method,
        }
