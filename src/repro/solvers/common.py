"""Shared solver plumbing: results, operators, convergence checks.

Resilience contract (see ``docs/resilience.md``): every Krylov solver

* validates ``b`` and ``x0`` for NaN/Inf up front and returns a failed
  :class:`SolveResult` (with ``reason``) instead of propagating
  non-finite arithmetic through the whole iteration;
* guards every preconditioner apply through
  :func:`as_preconditioner` — a non-finite output triggers at most one
  re-setup of the preconditioner (when it supports ``resetup()``, e.g.
  :class:`repro.resilience.ResilientFactor`) before the solve aborts
  with :class:`PreconditionerBreakdown`;
* watches the residual history with :class:`ConvergenceGuard` and
  aborts cleanly on divergence or sustained growth instead of looping
  to ``maxiter``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..kernels.trisolve import factor_solver
from ..obs import spans as _spans

__all__ = [
    "SolveResult",
    "PreconditionerBreakdown",
    "ConvergenceGuard",
    "input_guard",
    "as_operator",
    "as_preconditioner",
    "zero_rhs_result",
    "record_residual",
]


@dataclass
class SolveResult:
    """Outcome of an iterative solve.

    ``iterations`` counts matrix-vector products with A (the paper's
    Table II metric); ``converged`` reflects the relative-residual test
    ``‖b - Ax‖ / ‖b‖ ≤ tol``.  On a failed solve ``reason`` names the
    failure (non-finite inputs, divergence, stagnation, preconditioner
    breakdown) — ``None`` means the solver simply ran out of
    iterations or converged.
    """

    x: np.ndarray
    iterations: int
    converged: bool
    residual: float
    history: list = field(default_factory=list)
    reason: str | None = None

    def __repr__(self):
        tag = "converged" if self.converged else "NOT converged"
        why = f", reason={self.reason!r}" if self.reason else ""
        return f"SolveResult({tag} in {self.iterations} its, resid={self.residual:.3e}{why})"


class PreconditionerBreakdown(ArithmeticError):
    """A preconditioner apply produced non-finite values (even after the
    one permitted re-setup).  Solvers catch this and abort cleanly."""


def zero_rhs_result(n):
    """The exact solve of ``A x = 0``: ``x = 0`` in zero iterations.

    Every solver short-circuits through here when ``‖b‖ = 0``.  The old
    code silently substituted ``bnorm = 1.0`` and iterated against an
    *absolute* tolerance, so a zero right-hand side with a nonzero
    ``x0`` could report "converged" at whatever ``x`` the iteration
    wandered to.  A homogeneous system with a convergence test defined
    as ``‖b - Ax‖ / ‖b‖`` has exactly one sensible answer, and it costs
    nothing.
    """
    return SolveResult(
        x=np.zeros(int(n)), iterations=0, converged=True, residual=0.0, history=[0.0]
    )


def record_residual(solver, iteration, rel):
    """Per-iteration residual telemetry (no-op unless tracing is on).

    Emits a ``solver.residual`` counter event through :mod:`repro.obs`
    so a traced solve shows its convergence curve on the timeline.
    Reads the clock only — solve results are bit-identical either way.
    """
    if _spans.enabled():
        _spans.counter(f"solver.{solver}.residual", float(rel), cat="solver")
        _spans.instant(
            "solver.iteration", cat="solver",
            solver=solver, iteration=int(iteration), rel=float(rel),
        )


def input_guard(b, x):
    """Failure reason if ``b`` or the initial guess contain NaN/Inf."""
    if not np.all(np.isfinite(b)):
        return "non-finite right-hand side b"
    if not np.all(np.isfinite(x)):
        return "non-finite initial guess x0"
    return None


class ConvergenceGuard:
    """Divergence/stagnation watchdog over the relative-residual series.

    ``check(rel)`` returns a failure reason when:

    * ``rel`` is NaN/Inf (the iteration already produced garbage);
    * the residual grew for ``max_growth_iters`` *consecutive*
      iterations (divergence — e.g. an indefinite preconditioned
      operator under CG);
    * ``rel`` exceeds ``divergence_ratio`` times the best residual seen
      (runaway growth, caught before the consecutive counter trips).

    Otherwise returns ``None``.  Conservative defaults: a plateauing
    but non-increasing solve is never flagged, so convergent runs are
    untouched.
    """

    def __init__(self, *, max_growth_iters=25, divergence_ratio=1e8):
        self.max_growth_iters = int(max_growth_iters)
        self.divergence_ratio = float(divergence_ratio)
        self._prev = None
        self._best = np.inf
        self._n_growth = 0

    def check(self, rel):
        rel = float(rel)
        if not np.isfinite(rel):
            return "non-finite residual"
        if rel < self._best:
            self._best = rel
        if self._prev is not None and rel > self._prev:
            self._n_growth += 1
        else:
            self._n_growth = 0
        self._prev = rel
        if self._n_growth >= self.max_growth_iters:
            return f"residual grew for {self._n_growth} consecutive iterations"
        if self._best > 0.0 and rel > self.divergence_ratio * self._best:
            return f"residual diverged to {rel:.3e} ({self.divergence_ratio:.0e}x the best seen)"
        return None


def as_operator(A):
    """Normalize a matrix-like into a ``matvec(x) -> y`` callable."""
    if callable(A) and not hasattr(A, "matvec"):
        return A
    if hasattr(A, "matvec"):
        return A.matvec
    arr = np.asarray(A, dtype=np.float64)
    return lambda x: arr @ x


def _guarded_apply(apply, owner):
    """NaN/Inf guard around a preconditioner apply.

    A non-finite output triggers one re-setup when the owning object
    supports it (``owner.resetup()`` returns a replacement apply — the
    :class:`repro.resilience.ResilientFactor` protocol), then the apply
    is retried once; a second failure raises
    :class:`PreconditionerBreakdown`, which the solvers turn into a
    failed :class:`SolveResult`.  Finite outputs pass through unchanged,
    so preconditioned solves stay bit-identical to the unguarded path.
    """
    state = {"apply": apply, "resetup_left": 1 if hasattr(owner, "resetup") else 0}

    def guarded(r):
        z = state["apply"](r)
        if np.all(np.isfinite(z)):
            return z
        if state["resetup_left"]:
            state["resetup_left"] -= 1
            state["apply"] = owner.resetup()
            z = state["apply"](r)
            if np.all(np.isfinite(z)):
                return z
        raise PreconditionerBreakdown(
            "preconditioner apply produced non-finite values"
        )

    return guarded


def as_preconditioner(M, *, guard=True):
    """Normalize ``M`` into an ``apply(r) -> z`` callable (or None).

    Accepted forms:

    * ``None`` — unpreconditioned;
    * a callable — used as-is (e.g. ``ilu.solve`` or a custom apply);
    * an object with ``build_solver()`` (a factored
      :class:`~repro.core.JavelinILU` or a
      :class:`~repro.resilience.ResilientFactor`) — its fast reusable
      apply;
    * a combined L\\U factor in CSR form — applied by
      :func:`~repro.kernels.trisolve.factor_solver`, which builds its
      sweep state now, on plans from the pattern-keyed symbolic cache.
      The factor must be in the *same row/column order as A* (e.g. from
      :func:`~repro.core.iluk.ilu0_factor`); for a permuted
      ``JavelinILU`` factor pass the ``JavelinILU`` object itself,
      which applies its permutation around the sweeps.

    With ``guard=True`` (the default used by every solver) the returned
    apply checks its output for NaN/Inf on every call; a non-finite
    result triggers one ``M.resetup()`` (when available) and otherwise
    raises :class:`PreconditionerBreakdown`.
    """
    if M is None:
        return None
    if callable(M) and not hasattr(M, "build_solver"):
        apply = M
    elif hasattr(M, "build_solver"):
        apply = M.build_solver()
    elif hasattr(M, "indptr") and hasattr(M, "indices") and hasattr(M, "data"):
        apply = factor_solver(M)
    else:
        raise TypeError(
            f"cannot interpret {type(M).__name__} as a preconditioner; pass a "
            "callable, a JavelinILU, or a factored CSR matrix"
        )
    return _guarded_apply(apply, M) if guard else apply
