"""The compiled numeric factor against the row-by-row reference, bit for bit.

``ilu_factor`` is one call of the C row loop ``ilu_factor`` in
``kernels/level_sweep.c``; ``ilu_factor_sequential`` is the
``factor_row`` loop it must reproduce.  A failed pivot must raise the
reference's ``PivotBreakdownError``: same row, same value bits, same
kind.  The pivot cases port JAV001's guard, ``tol < |p| < inf``, to the
C loop.  Without a C compiler ``ilu_factor`` is the reference itself,
so every comparison here still holds.
"""

import ctypes
import shutil
from importlib import resources

import numpy as np
import pytest

from repro.core import iluk
from repro.core.iluk import PivotBreakdownError, ilu_factor, ilu_factor_sequential
from repro.core.symbolic import iluk_pattern
from repro.kernels import diag_positions, native
from repro.matrices import build_matrix, grid2d
from repro.sparse import CSRMatrix, from_dense

from helpers import random_csr

needs_cc = pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None,
                              reason="no C compiler on PATH")


def _outcome(factor, A, S, **kw):
    """The factor's bytes, or the breakdown's row, pivot bytes and kind."""
    try:
        F = factor(A, S, **kw)
    except PivotBreakdownError as e:
        return ("breakdown", e.row, np.float64(e.value).tobytes(), e.kind)
    return ("factor", F.data.tobytes())


def _same_outcome(A, S, **kw):
    want = _outcome(ilu_factor_sequential, A, S, **kw)
    assert _outcome(ilu_factor, A, S, **kw) == want
    return want


def _thresholds(A, tau):
    return tau * np.sqrt(np.bincount(np.repeat(np.arange(A.n_rows), np.diff(A.indptr)),
                                     weights=A.data * A.data, minlength=A.n_rows))


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("tau, modified", [(0.0, False), (1e-3, False), (1e-2, True)])
def test_compiled_factor_has_the_reference_bits(k, tau, modified):
    for A in (grid2d(12), random_csr(150, density=0.04, seed=7),
              build_matrix("scircuit", scale=0.05)):
        S = iluk_pattern(A, k)
        thresh = _thresholds(A, tau) if tau > 0.0 else None
        assert _same_outcome(A, S, drop_threshold=thresh, modified=modified)[0] == "factor"


def _planted(values, n=8):
    """A dominant matrix where row ``r`` pivots on ``values[r]`` and row ``r + 1`` reads it.

    Each planted row has no strict-lower entry, so its pivot is the
    stored value.
    """
    D = 4.0 * np.eye(n) + np.diag(np.ones(n - 1), 1) + np.diag(np.ones(n - 1), -1)
    for r in values:
        D[r, :r] = 0.0
    A = from_dense(D)
    for r, value in values.items():
        A.data[diag_positions(A)[r]] = value
    return A


@pytest.mark.parametrize("value, tol, kind", [
    (0.0, 0.0, "zero"),
    (-0.0, 0.0, "zero"),
    (1e-12, 1e-10, "tiny"),
    (-1e-12, 1e-10, "tiny"),
    (1e-10, 1e-10, "tiny"),  # |p| == tol fails tol < |p|
    (np.nan, 0.0, "nonfinite"),
    (np.inf, 0.0, "nonfinite"),
    (-np.inf, 0.0, "nonfinite"),
])
def test_a_bad_pivot_raises_the_reference_error(value, tol, kind):
    A = _planted({3: value})
    with np.errstate(all="ignore"):
        out = _same_outcome(A, iluk_pattern(A, 1), pivot_tol=tol)
    assert out[0] == "breakdown" and out[1] == 3 and out[3] == kind
    assert out[2] == np.float64(value).tobytes()


def test_a_good_pivot_just_above_the_floor_passes():
    A = _planted({3: 2e-10})
    assert _same_outcome(A, iluk_pattern(A, 1), pivot_tol=1e-10)[0] == "factor"


def test_the_first_bad_pivot_in_row_order_is_reported():
    A = _planted({5: np.nan, 2: 0.0})  # row 3 reads row 2 before row 6 reads row 5
    out = _same_outcome(A, iluk_pattern(A, 0))
    assert out[:2] == ("breakdown", 2) and out[3] == "zero"


def test_a_pivot_zeroed_by_an_earlier_rows_drop_raises():
    """Row 0's drop removes u_02, so row 2's pivot is 0 - 1 * 0 = 0."""
    D = np.array([[1.0, 0.0, 1e-3, 0.0],
                  [0.0, 1.0, 0.0, 0.0],
                  [1.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 1.0, 1.0]])
    A = from_dense(D)
    S = iluk_pattern(A, 0)
    assert _same_outcome(A, S)[0] == "factor"
    out = _same_outcome(A, S, drop_threshold=np.array([1e-2, 0.0, 0.0, 0.0]))
    assert out[:2] == ("breakdown", 2) and out[3] == "zero"


def test_a_pivot_cancelled_by_its_milu_mass_raises():
    """Row 0 drops -0.25 and adds it to its diagonal 0.25."""
    D = np.array([[0.25, -0.25, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 1.0, 1.0]])
    A = from_dense(D)
    S, thresh = iluk_pattern(A, 0), np.array([0.5, 0.0, 0.0])
    assert _same_outcome(A, S, drop_threshold=thresh)[0] == "factor"
    out = _same_outcome(A, S, drop_threshold=thresh, modified=True)
    assert out[:2] == ("breakdown", 0) and out[3] == "zero"


def test_without_a_compiler_the_factor_is_the_reference(monkeypatch):
    A = grid2d(10)
    S = iluk_pattern(A, 1)
    thresh = _thresholds(A, 1e-2)
    monkeypatch.setattr(iluk, "compiled_factor", lambda: None)
    for kw in ({}, {"drop_threshold": thresh, "modified": True}):
        assert (ilu_factor(A, S, **kw).data.tobytes()
                == ilu_factor_sequential(A, S, **kw).data.tobytes())


@pytest.mark.parametrize("compiled", [True, False])
def test_given_slots_give_the_searched_bits(compiled, monkeypatch):
    """``slots=scatter_slots(S, A)`` replaces the search, not a bit of the factor."""
    cases = []
    for A in (grid2d(12), random_csr(150, density=0.04, seed=7)):
        for k in (0, 2):
            S = iluk_pattern(A, k)
            cases.append((A, S, iluk.scatter_slots(S, A), ilu_factor_sequential(A, S)))
    if not compiled:
        monkeypatch.setattr(iluk, "compiled_factor", lambda: None)
    monkeypatch.setattr(iluk, "_scatter_values", _never_called)
    for A, S, slots, want in cases:
        assert ilu_factor(A, S, slots=slots).data.tobytes() == want.data.tobytes()


def _never_called(*args):
    raise AssertionError("the compiled factor ran on unchecked input")


def test_sizes_are_checked_before_the_compiled_call(monkeypatch):
    A = grid2d(6)
    S = iluk_pattern(A, 1)
    monkeypatch.setattr(iluk, "compiled_factor", lambda: _never_called)
    with pytest.raises(ValueError, match="drop_threshold"):
        ilu_factor(A, S, drop_threshold=np.ones(A.n_rows - 1))
    with pytest.raises(ValueError, match="drop_threshold"):
        ilu_factor(A, S, drop_threshold=np.ones((A.n_rows, 1)))
    other = iluk_pattern(grid2d(5), 1)
    with pytest.raises(ValueError, match="analysis"):
        ilu_factor(A, S, analysis=iluk.cached_analysis(other))
    with pytest.raises(ValueError, match="slots"):
        ilu_factor(A, S, slots=iluk.scatter_slots(S, A)[:-1])


def test_unsorted_or_diagonal_free_rows_are_rejected_before_the_compiled_call(monkeypatch):
    monkeypatch.setattr(iluk, "compiled_factor", lambda: _never_called)
    A = from_dense(np.array([[2.0, 1.0], [1.0, 2.0]]))
    for cols in ([1, 0, 0, 1], [0, 0, 0, 1]):
        S = CSRMatrix(2, 2, [0, 2, 4], cols, sort=False)
        with pytest.raises(ValueError, match="row 0 is not sorted or repeats"):
            ilu_factor(A, S)
    D = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="missing diagonal"):
        ilu_factor(from_dense(D), from_dense(D))


@needs_cc
def test_the_factor_comes_from_the_sweeps_library():
    """One library, built once from one source with one set of flags, has both kernels."""
    status = native.sweep_status()
    assert status.startswith("compiled: ")
    path = status.removeprefix("compiled: ")
    src = resources.files(native.__package__).joinpath(native.SOURCE).read_bytes()
    cc = shutil.which("cc") or shutil.which("gcc")
    assert path.endswith(f"level_sweep-{native._key(src, cc)}.so")
    lib = ctypes.CDLL(path)

    def address(fn):
        return ctypes.cast(fn, ctypes.c_void_p).value

    assert address(native.compiled_factor()) == address(lib.ilu_factor)
    assert address(native.compiled_sweep()) == address(lib.level_sweep)
    assert iluk.compiled_factor is native.compiled_factor


@needs_cc
def test_concurrent_factors_are_independent():
    from concurrent.futures import ThreadPoolExecutor

    A = grid2d(20)
    S = iluk_pattern(A, 1)
    want = ilu_factor_sequential(A, S).data.tobytes()
    with ThreadPoolExecutor(4) as pool:
        got = list(pool.map(lambda _: ilu_factor(A, S).data.tobytes(), range(16)))
    assert got == [want] * 16
