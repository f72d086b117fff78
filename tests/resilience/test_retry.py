"""ResilientFactor: breakdown detection, shift escalation, fallback chain."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    FactorizationBreakdown,
    JavelinILU,
    JavelinOptions,
    PivotBreakdownError,
    classify_pivot,
    ilu0_factor,
    ilut_factor,
)
from repro.core.ichol import ICholBreakdownError, ichol_factor
from repro.core.diagnostics import pivot_growth
from repro.matrices import grid2d, singular_block, zero_diag_rows
from repro.resilience import ResilienceReport, ResilientFactor, RetryPolicy
from repro.solvers import gmres
from repro.sparse import from_dense

from helpers import lower_only_pivot, on_pattern, random_csr, with_diagonal


# ----------------------------------------------------------------------
# breakdown taxonomy
# ----------------------------------------------------------------------
class TestBreakdownDetection:
    def test_zero_pivot_raises_structured(self):
        A = zero_diag_rows(grid2d(6), [0])
        with pytest.raises(FactorizationBreakdown) as ei:
            ilu0_factor(A, pivot_tol=1e-12)
        assert ei.value.row == 0
        assert ei.value.kind == "zero"

    def test_pivot_breakdown_is_still_zero_division_error(self):
        # backward compatibility: old callers catch ZeroDivisionError
        A = zero_diag_rows(grid2d(6), [0])
        with pytest.raises(ZeroDivisionError):
            ilu0_factor(A, pivot_tol=1e-12)

    def test_tiny_pivot_kind(self):
        D = np.array([[1e-30, 1.0], [1.0, 2.0]])
        with pytest.raises(PivotBreakdownError) as ei:
            ilu0_factor(from_dense(D), pivot_tol=1e-12)
        assert ei.value.kind == "tiny"

    def test_nonfinite_pivot_detected(self):
        D = np.array([[np.inf, 1.0], [1.0, 2.0]])
        with pytest.raises(PivotBreakdownError) as ei:
            ilu0_factor(from_dense(D), pivot_tol=0.0)
        assert ei.value.kind == "nonfinite"

    def test_nan_pivot_does_not_divide_through(self):
        # abs(nan) <= tol is False — the old check silently divided by NaN
        # (from_dense drops NaN entries, so poison the CSR data in place)
        A = grid2d(4)
        for k in range(A.indptr[0], A.indptr[1]):
            if A.indices[k] == 0:
                A.data[k] = np.nan
        with pytest.raises(PivotBreakdownError) as ei:
            ilu0_factor(A, pivot_tol=0.0)
        assert ei.value.kind == "nonfinite"
        assert ei.value.row == 0

    @staticmethod
    def _lower_only_poisoned(value, seed=0, **opts):
        """A set-up ILU and a copy of its input whose lower-stage-only pivot is ``value``."""
        A = random_csr(60, 0.08, seed=seed)
        ilu = JavelinILU(JavelinOptions(**opts)).setup(A)
        c = lower_only_pivot(ilu)
        return ilu, c, with_diagonal(A, int(ilu.perm[c]), value)

    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_lower_stage_pivot_fails_factor(self, seed, bad):
        # the ER/SR loops checked abs(pivot) <= tol, which NaN/Inf pass
        _, c, B = self._lower_only_poisoned(bad, seed)
        with pytest.raises(PivotBreakdownError) as ei:
            JavelinILU().setup(B).factor()
        assert ei.value.kind == "nonfinite"
        assert ei.value.row == c

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_lower_stage_pivot_fails_refactor(self, bad):
        ilu, c, B = self._lower_only_poisoned(bad)
        ilu.factor()
        with pytest.raises(PivotBreakdownError) as ei:
            ilu.refactor(B)
        assert ei.value.kind == "nonfinite"
        assert ei.value.row == c

    def test_tiny_lower_stage_pivot_kind(self):
        _, c, B = self._lower_only_poisoned(1e-30, pivot_tol=1e-12)
        with pytest.raises(PivotBreakdownError) as ei:
            JavelinILU(JavelinOptions(pivot_tol=1e-12)).setup(B).factor()
        assert ei.value.kind == "tiny"
        assert ei.value.row == c

    def test_ilut_breakdown_structured(self):
        A = zero_diag_rows(grid2d(6), [0])
        with pytest.raises(FactorizationBreakdown) as ei:
            ilut_factor(A, tau=1e-3, pivot_tol=1e-12)
        assert ei.value.kind == "zero"

    def test_ichol_negative_kind(self):
        D = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ICholBreakdownError) as ei:
            ichol_factor(from_dense(D))
        assert ei.value.kind == "negative"
        assert isinstance(ei.value, FactorizationBreakdown)

    def test_classify_pivot(self):
        assert classify_pivot(0.0) == "zero"
        assert classify_pivot(1e-20, 1e-12) == "tiny"
        assert classify_pivot(float("nan")) == "nonfinite"
        assert classify_pivot(float("inf")) == "nonfinite"
        assert classify_pivot(1.0) is None


# ----------------------------------------------------------------------
# pivot-growth diagnostics on pathological factors
# ----------------------------------------------------------------------
class TestPivotGrowthRobust:
    def test_counts_tiny_and_nonfinite(self):
        A = grid2d(4)
        F = A.copy()
        # corrupt two diagonals: one tiny, one NaN
        diag_idx = [
            k
            for r in range(F.n_rows)
            for k in range(F.indptr[r], F.indptr[r + 1])
            if F.indices[k] == r
        ]
        F.data[diag_idx[1]] = 1e-300
        F.data[diag_idx[2]] = np.nan
        g = pivot_growth(A, F)
        assert g["n_nonfinite_pivots"] == 1
        assert g["n_tiny_pivots"] >= 2  # the tiny one plus the NaN
        assert g["pivot_spread"] == np.inf or g["pivot_spread"] > 1e6

    def test_zeroed_diagonal_matrix_no_crash(self):
        A = zero_diag_rows(grid2d(4), [0, 5])
        g = pivot_growth(A, A)
        assert g["min_pivot"] == 0.0
        assert g["pivot_spread"] == np.inf
        assert g["n_tiny_pivots"] >= 2

    def test_empty_matrix_defined(self):
        from repro.sparse import CSRMatrix

        E = CSRMatrix(2, 2, [0, 0, 0], [], [])
        g = pivot_growth(E, E)
        # all pivots structurally absent -> all tiny, zero growth, no crash
        assert g["growth"] == 0.0
        assert g["n_tiny_pivots"] == 2
        assert g["pivot_spread"] == np.inf


# ----------------------------------------------------------------------
# retry chain
# ----------------------------------------------------------------------
class TestRetryChain:
    def test_healthy_matrix_first_attempt_no_shift(self):
        rf = ResilientFactor().setup(grid2d(8))
        assert rf.report.final_variant == "primary"
        assert rf.report.final_shift == 0.0
        assert rf.report.n_attempts == 1
        assert rf.report.n_breakdowns == 0

    def test_zero_diagonal_rescued_by_shift(self):
        A = zero_diag_rows(grid2d(8), [0])
        rf = ResilientFactor().setup(A)
        assert rf.report.final_variant == "primary"
        assert rf.report.final_shift > 0.0
        first = rf.report.attempts[0]
        assert not first.ok and first.kind == "zero" and first.row == 0
        assert np.all(np.isfinite(rf.solve(np.ones(A.n_rows))))

    def test_singular_block_factors_with_history(self):
        # the acceptance scenario: a structurally singular block that
        # produced NaN/zero pivots now factors via the chain, with the
        # attempt history recorded
        A = singular_block(36, block_start=5, block_size=3)
        with pytest.raises(FactorizationBreakdown):
            ilu0_factor(A, pivot_tol=1e-12)
        rf = ResilientFactor(JavelinOptions(fill_level=1, tau=1e-3)).setup(A)
        assert rf.report.final_variant is not None
        assert rf.report.n_breakdowns >= 1
        assert np.all(np.isfinite(rf.solve(np.ones(A.n_rows))))
        d = rf.report.to_dict()
        assert d["attempts"][0]["ok"] is False

    def test_shift_escalation_doubles(self):
        A = zero_diag_rows(grid2d(8), [0, 17, 40])
        pol = RetryPolicy(shift0=1e-4)
        rf = ResilientFactor(policy=pol).setup(A)
        shifts = [a.shift for a in rf.report.attempts if a.variant == "primary"]
        for lo, hi in zip(shifts, shifts[1:]):
            assert hi == max(2.0 * lo, pol.shift0)

    def test_chain_degrades_when_shifts_disabled(self):
        A = zero_diag_rows(grid2d(8), [0])
        rf = ResilientFactor(policy=RetryPolicy(max_shift_attempts=0)).setup(A)
        # primary and milu both hit the zero pivot unshifted
        assert rf.report.final_variant in ("block_jacobi", "jacobi")
        variants = [a.variant for a in rf.report.attempts]
        assert "primary" in variants and "milu" in variants
        assert np.all(np.isfinite(rf.solve(np.ones(A.n_rows))))

    def test_ilu0_stage_skipped_when_primary_is_ilu0(self):
        A = zero_diag_rows(grid2d(8), [0])
        rf = ResilientFactor(policy=RetryPolicy(max_shift_attempts=0)).setup(A)
        assert "ilu0" not in [a.variant for a in rf.report.attempts]

    def test_ilu0_stage_tried_for_filled_primary(self):
        A = singular_block(36, block_start=4, block_size=4)
        rf = ResilientFactor(
            JavelinOptions(fill_level=2), policy=RetryPolicy(max_shift_attempts=0)
        ).setup(A)
        variants = [a.variant for a in rf.report.attempts]
        assert "ilu0" in variants

    def test_jacobi_last_resort_never_fails(self):
        # all-zero diagonal: every factorization and block inverse is
        # garbage; the chain must still end with a finite apply
        n = 16
        D = np.zeros((n, n))
        for i in range(n):
            D[i, i] = 0.0
            D[i, (i + 1) % n] = 1.0
            D[i, (i - 1) % n] = 1.0
        rf = ResilientFactor().setup(from_dense(D))
        z = rf.solve(np.ones(n))
        assert np.all(np.isfinite(z))

    def test_report_repr_and_cache_stats(self):
        rf = ResilientFactor().setup(grid2d(6))
        assert "final='primary'" in repr(rf.report)
        assert set(rf.report.cache) == {
            "hits",
            "misses",
            "evictions",
            "entries",
            "hit_rate",
            "max_entries",
        }

    def test_solve_before_setup_raises(self):
        with pytest.raises(RuntimeError):
            ResilientFactor().solve(np.ones(3))


# ----------------------------------------------------------------------
# resetup protocol (mid-solve demotion)
# ----------------------------------------------------------------------
class TestResetup:
    def test_resetup_advances_chain(self):
        A = grid2d(8)
        rf = ResilientFactor().setup(A)
        before = rf.report.final_variant
        apply2 = rf.resetup()
        assert rf.report.resetups == 1
        assert rf.report.final_variant != before
        assert np.all(np.isfinite(apply2(np.ones(A.n_rows))))

    def test_guarded_solver_demotes_poisoned_apply(self):
        A = grid2d(10)
        b = np.ones(A.n_rows)
        rf = ResilientFactor().setup(A)
        rf._apply = lambda r: np.full(A.n_rows, np.nan)  # poison the winner
        res = gmres(A, b, M=rf, tol=1e-8)
        assert res.converged
        assert rf.report.resetups == 1

    def test_double_poison_aborts_cleanly(self):
        A = grid2d(10)
        b = np.ones(A.n_rows)
        rf = ResilientFactor().setup(A)

        def poison(_r):
            return np.full(A.n_rows, np.nan)

        rf._apply = poison
        rf.resetup = lambda: poison  # the replacement is poisoned too
        res = gmres(A, b, M=rf, tol=1e-8)
        assert not res.converged
        assert res.reason is not None and "non-finite" in res.reason


# ----------------------------------------------------------------------
# property tests: the chain always terminates, the apply is finite
# ----------------------------------------------------------------------
@st.composite
def broken_matrix(draw):
    """A grid matrix sabotaged with zeroed diagonals and/or a rank-1 block."""
    nx = draw(st.integers(4, 8))
    A = grid2d(nx)
    n = A.n_rows
    n_zero = draw(st.integers(0, 3))
    rows = draw(
        st.lists(st.integers(0, n - 1), min_size=n_zero, max_size=n_zero, unique=True)
    )
    if rows:
        A = zero_diag_rows(A, rows)
    if draw(st.booleans()):
        bs = draw(st.integers(2, 4))
        start = draw(st.integers(0, n - bs))
        A = singular_block(n, block_start=start, block_size=bs, base=A)
    return A


@given(broken_matrix(), st.integers(0, 4))
@settings(max_examples=25, deadline=None)
def test_resilient_factor_always_terminates_finitely(A, max_shifts):
    rf = ResilientFactor(policy=RetryPolicy(max_shift_attempts=max_shifts)).setup(A)
    assert rf.report.final_variant is not None
    z = rf.solve(np.ones(A.n_rows))
    assert np.all(np.isfinite(z))
    # bounded attempt count: shifts per factorization variant + fallbacks
    assert rf.report.n_attempts <= 3 * (max_shifts + 1) + 2


# ----------------------------------------------------------------------
# value-only refactor: bit-identity + symbolic reuse through the chain
# ----------------------------------------------------------------------
class TestRefactor:
    def _drift(self, A, seed):
        from repro.kernels import diag_positions

        rng = np.random.default_rng(seed)
        B = A.copy()
        B.data = B.data * (1.0 + 0.15 * rng.standard_normal(B.data.shape))
        B.data[diag_positions(B)] += np.abs(B.data).max()
        return B

    def test_refactor_bitwise_identical_to_fresh_setup(self):
        A = grid2d(8)
        rf = ResilientFactor().setup(A)
        b = np.linspace(0.5, 1.5, A.n_rows)
        for seed in range(3):
            B = self._drift(A, seed)
            rf.refactor(B)
            fresh = ResilientFactor().setup(B)
            assert rf.report.final_variant == fresh.report.final_variant
            assert rf.report.final_shift == fresh.report.final_shift
            assert rf.report.n_attempts == fresh.report.n_attempts
            assert np.array_equal(rf.build_solver()(b), fresh.build_solver()(b))

    def test_refactor_reuses_symbolic_products(self):
        from repro.kernels.cache import default_cache

        A = grid2d(8)
        rf = ResilientFactor().setup(A)
        before = default_cache().stats()["misses"]
        for seed in range(4):
            rf.refactor(self._drift(A, seed))
        assert default_cache().stats()["misses"] == before
        assert rf.n_refactors == 4

    def test_refactor_rejects_pattern_change(self):
        rf = ResilientFactor().setup(grid2d(8))
        with pytest.raises(ValueError, match="pattern"):
            rf.refactor(grid2d(9))

    def test_refactor_rejects_a_frozen_pattern_of_another_grid(self):
        from repro.kernels.cache import frozen_pattern

        A = grid2d(8)
        rf = ResilientFactor().setup(A)
        C = grid2d(9)
        with pytest.raises(ValueError, match="pattern"):
            rf.refactor(on_pattern(C, *frozen_pattern(C)))
        B = self._drift(A, 0)
        B = on_pattern(B, *frozen_pattern(B))
        rf.refactor(B)
        rf.refactor(B)  # the remembered digest
        fresh = ResilientFactor().setup(B)
        b = np.linspace(0.5, 1.5, A.n_rows)
        assert np.array_equal(rf.build_solver()(b), fresh.build_solver()(b))

    def test_refactor_before_setup_raises(self):
        with pytest.raises(RuntimeError, match="setup"):
            ResilientFactor().refactor(grid2d(6))

    def test_setup_on_new_pattern_resets_variant_cache(self):
        rf = ResilientFactor().setup(grid2d(8))
        rf.refactor(self._drift(grid2d(8), 0))
        stale = rf._ilu_cache["primary"]
        rf.setup(grid2d(9))  # new pattern: old symbolic products invalid
        # the chain rebuilt its cached primary against the new pattern
        assert rf._ilu_cache["primary"] is not stale
        assert rf._ilu_cache["primary"].pattern_key == rf._pattern_key

    def test_refactor_survives_breakdown_values(self):
        # new values that break the primary still walk the chain
        A = grid2d(8)
        rf = ResilientFactor().setup(A)
        bad = zero_diag_rows(A, [0, 3])
        rf.refactor(bad)
        fresh = ResilientFactor().setup(bad)
        assert rf.report.final_variant == fresh.report.final_variant
        z = rf.solve(np.ones(A.n_rows))
        assert np.all(np.isfinite(z))


# ----------------------------------------------------------------------
# the chain's row transforms: whole-array forms vs their per-row loops
# ----------------------------------------------------------------------
def _row_scales_loop(A):
    """Per-row reference of ``retry._row_scales``."""
    scale = np.empty(A.n_rows)
    for r in range(A.n_rows):
        _, vals = A.row(r)
        scale[r] = float(np.abs(vals).max()) if vals.size else 1.0
    scale[scale == 0.0] = 1.0
    return scale


def _shifted_loop(A, alpha, base_diag, row_scale):
    """Per-row reference of ``retry._shifted``."""
    B = A.copy()
    for r in range(A.n_rows):
        lo = int(B.indptr[r])
        cols = B.indices[lo : int(B.indptr[r + 1])]
        p = int(np.searchsorted(cols, r))
        B.data[lo + p] = base_diag[r] + alpha * row_scale[r]
    return B


@st.composite
def rows_with_edge_cases(draw, max_n=14, full_diag=False):
    """A square CSR whose rows may be empty, all-zero or hold a NaN.

    ``full_diag`` stores every diagonal entry (possibly an explicit
    zero), as the chain's shifts require.
    """
    from repro.sparse import CSRMatrix

    n = draw(st.integers(1, max_n))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    D = rng.standard_normal((n, n)) * (rng.random((n, n)) < 0.4)
    mask = D != 0.0
    kind = rng.integers(0, 4, size=n)  # 0 plain, 1 empty, 2 all-zero, 3 NaN
    mask[kind == 1] = False
    mask[kind == 2] = rng.random((int((kind == 2).sum()), n)) < 0.5
    D[kind == 2] = 0.0
    mask[kind == 3, 0] = True
    D[kind == 3, 0] = np.nan
    if full_diag:
        np.fill_diagonal(mask, True)
    rows, cols = np.nonzero(mask)
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return CSRMatrix(n, n, indptr, cols, D[rows, cols])


@settings(max_examples=200, deadline=None)
@given(rows_with_edge_cases())
def test_row_scales_match_the_row_loop(A):
    from repro.resilience.retry import _row_scales

    assert _row_scales(A).tobytes() == _row_scales_loop(A).tobytes()


@settings(max_examples=100, deadline=None)
@given(rows_with_edge_cases(full_diag=True), st.sampled_from([0.0, 1e-8, 0.5, 3.0]))
def test_shifted_matches_the_row_loop(A, alpha):
    from repro.resilience.retry import _row_scales, _shifted

    got = _shifted(A, alpha)
    ref = _shifted_loop(A, alpha, A.diagonal(), _row_scales(A))
    assert got.data.tobytes() == ref.data.tobytes()
    assert np.array_equal(got.indices, ref.indices)
