"""Breakdown-safe factorization: the shift/fallback retry chain.

Javelin does not pivot (§III), so a zero, tiny or non-finite pivot
aborts the factorization with a structured
:class:`~repro.core.breakdown.FactorizationBreakdown` instead of
silently dividing through.  :class:`ResilientFactor` turns that abort
into a *driver loop* that always terminates with a usable
preconditioner:

1. **Shift escalation** (Manteuffel).  Retry the same factorization on
   ``A + α·diag(rowscale)`` with ``α ← max(2α, α₀)``, up to
   ``max_shift_attempts`` times.  A small shift preserves most of the
   preconditioner quality while lifting the offending pivots.
2. **Variant degradation.**  When shifting is exhausted the chain
   degrades: ILU(k, τ) → ILU(0) → MILU → block-Jacobi → Jacobi.  Each
   step trades preconditioner quality for robustness; the final Jacobi
   stage cannot fail (zero/non-finite diagonal entries are replaced by
   1.0).
3. **Validation.**  A candidate only wins if its factor values are
   finite *and* a probe apply returns finite values — a factorization
   can succeed arithmetically yet be poisoned (e.g. overflow without
   Inf pivots on the diagonal).

Every attempt — failed or not — is recorded in a
:class:`ResilienceReport`, so a production run can log *why* the
preconditioner it ended up with is the one it has.

The resulting object plugs into every Krylov solver via
``as_preconditioner`` and supports the mid-solve ``resetup()``
protocol: when a guarded apply observes non-finite output, the solver
asks the factor to advance its chain once and continue with the next,
more robust variant.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace

import numpy as np

from ..baselines.block_jacobi import BlockJacobi
from ..core.breakdown import FactorizationBreakdown
from ..core.ilut import ilut_factor
from ..core.javelin import JavelinILU, JavelinOptions
from ..kernels.cache import default_cache, pattern_fingerprint, require_pattern
from ..kernels.plans import diag_positions
from ..kernels.trisolve import factor_solver
from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from ..sparse.pattern import has_full_diagonal

__all__ = [
    "ExponentialBackoff",
    "RetryPolicy",
    "AttemptRecord",
    "ResilienceReport",
    "ResilientFactor",
]


@dataclass(frozen=True)
class ExponentialBackoff:
    """Seeded exponential backoff: ``delay(i) = base·factorⁱ·(1 + jitter·u)``.

    The one backoff implementation shared by every retry loop in the
    stack — the cluster router's hedged re-dispatches and the
    :class:`ResilientFactor` chain's virtual retry charges both draw
    from here, so "how long do we wait before trying again" has a
    single seeded answer.  ``u`` is a uniform draw in ``[0, 1)``
    derived from ``(jitter_seed, attempt)`` alone, so ``delay(i)`` is a
    pure function — independent of call order, process, or how many
    other backoffs exist — which is what keeps the virtual-clock
    replays bit-identical.
    """

    base: float = 1e-3
    factor: float = 2.0
    jitter: float = 0.1
    jitter_seed: int = 0
    max_delay: float = float("inf")

    def __post_init__(self):
        if self.base < 0.0:
            raise ValueError(f"base must be >= 0, got {self.base}")
        if self.factor < 1.0:
            raise ValueError(f"factor must be >= 1, got {self.factor}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def delay(self, attempt) -> float:
        """Deterministic delay before retry number ``attempt`` (0-based)."""
        attempt = int(attempt)
        if attempt < 0:
            raise ValueError(f"attempt must be >= 0, got {attempt}")
        raw = self.base * self.factor**attempt
        if self.jitter > 0.0:
            u = float(np.random.default_rng((self.jitter_seed, attempt)).random())
            raw *= 1.0 + self.jitter * u
        return min(raw, self.max_delay)


@dataclass(frozen=True)
class RetryPolicy:
    """Knobs of the retry chain.

    ``pivot_floor`` is the tiny-pivot threshold handed to every
    factorization attempt (pivots with ``|p| ≤ pivot_floor`` raise
    rather than divide); ``shift0`` is the initial Manteuffel shift
    α₀, escalated as ``α ← max(2α, α₀)`` for at most
    ``max_shift_attempts`` attempts per factorization variant.
    ``milu_tau`` parameterizes the MILU fallback and ``block_size`` the
    block-Jacobi fallback.
    """

    pivot_floor: float = 1e-12
    shift0: float = 1e-3
    max_shift_attempts: int = 6
    milu_tau: float = 1e-3
    block_size: int = 32

    def with_(self, **kw):
        """A copy with some knobs replaced (the serve layer's deadline
        demotion shrinks ``max_shift_attempts`` under a tight budget)."""
        return replace(self, **kw)

    def backoff(self, base=1e-3, factor=2.0, jitter_seed=0, *, jitter=0.1,
                max_delay=float("inf")) -> ExponentialBackoff:
        """The policy's seeded exponential backoff schedule.

        One implementation for every retry loop: the cluster router's
        hedge/failover re-dispatch delays and the virtual charge a
        :class:`ResilientFactor` retry ladder accrues
        (:attr:`ResilienceReport.backoff_total`) both come from the
        :class:`ExponentialBackoff` built here.
        """
        return ExponentialBackoff(
            base=float(base),
            factor=float(factor),
            jitter=float(jitter),
            jitter_seed=int(jitter_seed),
            max_delay=float(max_delay),
        )


@dataclass
class AttemptRecord:
    """One entry of the attempt history."""

    variant: str
    shift: float
    ok: bool
    detail: str = ""
    row: int | None = None
    kind: str | None = None
    #: seeded virtual delay charged before the *next* retry (0 on a win)
    backoff: float = 0.0

    def to_dict(self):
        return asdict(self)


@dataclass
class ResilienceReport:
    """Full history of how the final preconditioner was obtained."""

    attempts: list = field(default_factory=list)
    final_variant: str | None = None
    final_shift: float = 0.0
    resetups: int = 0
    cache: dict = field(default_factory=dict)

    def record(self, attempt: AttemptRecord):
        """Append one attempt and mirror it as a ``resilience.attempt``
        obs instant (free when tracing is off)."""
        self.attempts.append(attempt)
        _spans.instant(
            "resilience.attempt",
            cat="resilience",
            variant=attempt.variant,
            shift=attempt.shift,
            ok=attempt.ok,
            detail=attempt.detail,
        )

    @property
    def n_attempts(self):
        return len(self.attempts)

    @property
    def n_breakdowns(self):
        return sum(1 for a in self.attempts if not a.ok)

    @property
    def backoff_total(self):
        """Virtual retry-delay charge accrued by failed attempts.

        Serving layers add this to a cold build's cost so a
        breakdown-riddled setup pays for its retries on the virtual
        clock too (same :meth:`RetryPolicy.backoff` schedule the
        cluster router uses for hedging).
        """
        return sum(a.backoff for a in self.attempts)

    def to_dict(self):
        return {
            "attempts": [a.to_dict() for a in self.attempts],
            "final_variant": self.final_variant,
            "final_shift": self.final_shift,
            "resetups": self.resetups,
            "cache": dict(self.cache),
        }

    def __repr__(self):
        return (
            f"ResilienceReport(final={self.final_variant!r} shift={self.final_shift:g}, "
            f"{self.n_attempts} attempts, {self.n_breakdowns} breakdowns, "
            f"{self.resetups} resetups)"
        )


def _row_scales(A):
    """Per-row magnitude, the shift scaling (cf. ``ichol_shifted``).

    The largest ``|a_rc|`` of each row; an empty or all-zero row scales
    by 1.0, and a NaN entry makes its row's scale NaN.
    """
    scale = np.ones(A.n_rows)
    full = np.flatnonzero(np.diff(A.indptr) > 0)
    if full.size:
        scale[full] = np.maximum.reduceat(np.abs(A.data[: A.indptr[-1]]), A.indptr[full])
    scale[scale == 0.0] = 1.0
    return scale


def _shifted(A, alpha):
    """``A``'s diagonal ``d`` replaced by ``d + α·rowscale``, on ``A``'s own pattern arrays."""
    data = A.data.copy()
    data[diag_positions(A)] = A.diagonal() + alpha * _row_scales(A)
    return CSRMatrix(A.n_rows, A.n_cols, A.indptr, A.indices, data, sort=False, check=False)


class ResilientFactor:
    """Breakdown-safe preconditioner driver.

    Usage::

        rf = ResilientFactor(JavelinOptions(fill_level=1)).setup(A)
        res = gmres(A, b, M=rf)          # guarded apply + resetup protocol
        print(rf.report)                 # full attempt history

    ``setup`` always succeeds: the chain ends in plain Jacobi, which
    cannot break down.  ``report.final_variant`` names what you got.
    """

    #: degradation order; "primary" is the user's requested ILU(k, τ)
    CHAIN = ("primary", "ilu0", "milu", "block_jacobi", "jacobi")

    def __init__(self, options: JavelinOptions | None = None, policy: RetryPolicy | None = None):
        self.options = options or JavelinOptions()
        self.policy = policy or RetryPolicy()
        self.report = ResilienceReport()
        self._ready = False
        self._apply = None
        self.ilu = None  # the JavelinILU behind an ILU-variant win, if any
        # per-variant JavelinILU instances, so shift retries and
        # value-only refactor()s reuse one symbolic setup per variant
        self._ilu_cache: dict = {}
        self.n_refactors = 0
        # the chain's virtual retry-delay schedule (shared implementation
        # with the cluster router's hedging — see RetryPolicy.backoff)
        self._backoff = self.policy.backoff()

    def _record_failure(self, variant, shift, **kw):
        """Record a failed attempt, charging its seeded backoff delay."""
        self.report.record(
            AttemptRecord(
                variant,
                shift,
                False,
                backoff=self._backoff.delay(self.report.n_breakdowns),
                **kw,
            )
        )

    # ------------------------------------------------------------------
    def setup(self, A):
        """Run the retry chain until a validated preconditioner wins."""
        key = pattern_fingerprint(A)
        if getattr(self, "_pattern_key", None) != key:
            self._ilu_cache.clear()  # symbolic reuse is per pattern
        self._pattern_key = key
        self.A = A
        self._structural_diag = has_full_diagonal(A)
        self.report = ResilienceReport()
        self._stage = 0
        self._advance()
        self.report.cache = default_cache().stats()
        self._ready = True
        return self

    def refactor(self, A):
        """Value-only re-setup: same pattern, new values, symbolic reuse.

        The regime Javelin's setup amortization actually targets —
        Newton loops and implicit time-steppers — re-factors one
        sparsity pattern for thousands of steps with drifting values.
        This re-runs the retry chain against the new values while every
        ILU variant reuses its cached :class:`JavelinILU` symbolic
        setup (fill pattern, level schedule, permutation — all pure
        functions of the pattern), so only the numeric phase is paid.

        Contract: the winning factor, the applies, and the attempt
        history are **bitwise identical** to
        ``ResilientFactor(options, policy).setup(A)`` on the same
        values — value-only reuse moves cost, never bits.  Raises
        ``ValueError`` when ``A``'s pattern differs from the setup
        pattern (that needs a real :meth:`setup`).
        """
        if not self._ready:
            raise RuntimeError("call setup(A) before refactor()")
        require_pattern(A, self._pattern_key)
        self.A = A
        self.report = ResilienceReport()
        self._stage = 0
        self._advance()
        self.report.cache = default_cache().stats()
        self.n_refactors += 1
        _spans.instant(
            "resilience.refactor",
            cat="resilience",
            variant=self.report.final_variant,
            n_refactors=self.n_refactors,
        )
        return self

    # ------------------------------------------------------------------
    # chain stages
    # ------------------------------------------------------------------
    def _validate(self, apply, data=None):
        """Failure detail, or None when the candidate is usable."""
        if data is not None and not np.all(np.isfinite(data)):
            return "non-finite factor entries"
        probe = apply(np.ones(self.A.n_rows))
        if not np.all(np.isfinite(probe)):
            return "non-finite probe apply"
        return None

    def _try_factorization(self, variant, build):
        """Shift-escalation loop around one factorization variant.

        ``build(B)`` factors the (possibly shifted) matrix and returns
        ``(apply, data, ilu_or_none)``; raises FactorizationBreakdown on
        a bad pivot.  Returns True when a validated candidate won.
        """
        if not self._structural_diag:
            self._record_failure(variant, 0.0, detail="missing structural diagonal")
            return False
        pol = self.policy
        alpha = 0.0
        for _ in range(pol.max_shift_attempts + 1):
            B = self.A if alpha == 0.0 else _shifted(self.A, alpha)
            try:
                apply, data, ilu = build(B)
            except FactorizationBreakdown as e:
                self._record_failure(variant, alpha, detail=str(e), row=e.row, kind=e.kind)
            else:
                why = self._validate(apply, data)
                if why is None:
                    self.report.record(AttemptRecord(variant, alpha, True))
                    self.report.final_variant = variant
                    self.report.final_shift = alpha
                    self._apply = apply
                    self.ilu = ilu
                    return True
                self._record_failure(variant, alpha, detail=why)
            alpha = max(2.0 * alpha, pol.shift0)
        return False

    def _ilu_build(self, variant, opts, B):
        """Factor ``B`` with ``opts``, reusing the variant's symbolic setup.

        Every matrix one :class:`ResilientFactor` factors shares the
        setup pattern (Manteuffel shifts only rewrite the structurally
        present diagonal; :meth:`refactor` requires it), and a
        :class:`JavelinILU`'s setup products are pure functions of that
        pattern — so each chain variant keeps one instance and later
        builds run the value-only numeric phase.  Bit-identical to a
        fresh ``setup(B).factor()`` by the :meth:`JavelinILU.refactor`
        contract.
        """
        ilu = self._ilu_cache.get(variant)
        if ilu is not None and ilu.options == opts:
            res = ilu.refactor(B)
        else:
            ilu = JavelinILU(opts).setup(B)
            res = ilu.factor()
            self._ilu_cache[variant] = ilu
        return ilu.build_solver(), res.F.data, ilu

    def _build_primary(self, B):
        opts = self.options.with_(pivot_tol=max(self.options.pivot_tol, self.policy.pivot_floor))
        return self._ilu_build("primary", opts, B)

    def _build_ilu0(self, B):
        opts = self.options.with_(
            fill_level=0,
            tau=0.0,
            modified=False,
            pivot_tol=max(self.options.pivot_tol, self.policy.pivot_floor),
        )
        return self._ilu_build("ilu0", opts, B)

    def _build_milu(self, B):
        F = ilut_factor(
            B, tau=self.policy.milu_tau, modified=True, pivot_tol=self.policy.pivot_floor
        )
        return factor_solver(F), F.data, None

    def _try_block_jacobi(self):
        try:
            bj = BlockJacobi(self.policy.block_size).setup(self.A)
        except Exception as e:  # singular blocks already regularized; be safe
            self._record_failure("block_jacobi", 0.0, detail=str(e))
            return False
        why = self._validate(bj.solve)
        if why is not None:
            self._record_failure("block_jacobi", 0.0, detail=why)
            return False
        self.report.record(AttemptRecord("block_jacobi", 0.0, True))
        self.report.final_variant = "block_jacobi"
        self.report.final_shift = 0.0
        self._apply = bj.solve
        self.ilu = None
        return True

    def _build_jacobi(self):
        d = self.A.diagonal()
        bad = ~np.isfinite(d) | (d == 0.0)
        d[bad] = 1.0
        inv = 1.0 / d

        def apply(r):
            return np.asarray(r, dtype=np.float64) * inv

        self.report.record(
            AttemptRecord("jacobi", 0.0, True, detail=f"{int(bad.sum())} guarded diagonal entries")
        )
        self.report.final_variant = "jacobi"
        self.report.final_shift = 0.0
        self._apply = apply
        self.ilu = None
        return True

    def _primary_is_ilu0(self):
        return self.options.fill_level == 0 and self.options.tau == 0.0 and not self.options.modified

    def _advance(self):
        """Walk the chain from the current stage until a variant wins."""
        while self._stage < len(self.CHAIN):
            variant = self.CHAIN[self._stage]
            self._stage += 1
            if variant == "primary":
                if self._try_factorization("primary", self._build_primary):
                    return
            elif variant == "ilu0":
                if self._primary_is_ilu0():
                    continue  # identical to primary; don't retry the same thing
                if self._try_factorization("ilu0", self._build_ilu0):
                    return
            elif variant == "milu":
                if self._try_factorization("milu", self._build_milu):
                    return
            elif variant == "block_jacobi":
                if self._try_block_jacobi():
                    return
            else:
                self._build_jacobi()
                return
        raise AssertionError("unreachable: the jacobi stage always succeeds")

    # ------------------------------------------------------------------
    # preconditioner protocol
    # ------------------------------------------------------------------
    def build_solver(self):
        """The current apply (consumed by ``as_preconditioner``)."""
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        return self._apply

    def solve(self, b):
        """Apply the current preconditioner: ``z = M⁻¹ b``."""
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        return self._apply(b)

    def build_multi_solver(self):
        """A multi-RHS apply ``apply(B) -> Z`` on a 2-D block ``(n, k)``.

        When the chain's winner is an ILU variant (MILU included), this
        is the apply the chain already built and validated
        (:func:`~repro.kernels.trisolve.factor_solver`), whose
        level-batched sweeps take a block — bit-identical per column to
        :meth:`solve` while amortizing the per-level dispatch across the
        batch.  Block-Jacobi and Jacobi apply column by column.  Rebuild
        after a :meth:`resetup` — the returned callable is pinned to the
        current variant.
        """
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        apply = self._apply
        if self.report.final_variant not in ("block_jacobi", "jacobi"):
            return apply

        def apply_multi(B):
            B = np.asarray(B, dtype=np.float64)
            cols = [apply(B[:, j]) for j in range(B.shape[1])]
            return (
                np.stack(cols, axis=1) if cols else np.empty((B.shape[0], 0))
            )

        return apply_multi

    def resetup(self):
        """Advance the chain mid-solve (the guarded-apply protocol).

        Called by :func:`repro.solvers.as_preconditioner`'s guard when
        an apply returns non-finite values at solve time — the variant
        that validated at setup has gone bad on real data.  Marks the
        current variant failed, moves to the next chain stage, and
        returns the replacement apply.
        """
        if not self._ready:
            raise RuntimeError("call setup(A) first")
        self._record_failure(
            self.report.final_variant or "?",
            self.report.final_shift,
            detail="demoted: non-finite apply observed during solve",
        )
        self.report.resetups += 1
        self._advance()
        return self._apply
