"""The production sweeps against the scalar row loop, bit for bit.

``trisolve_lower`` / ``trisolve_upper`` run one compiled C call per
sweep (``kernels/level_sweep.c``), or, without a compiler, one scipy
``csr_matvec(s)`` call per level; ``spmv_csr`` calls ``csr_matvec``.
Each reproduces its scalar reference only if every ``a * x`` is added
in entry order without being fused into a multiply-add.  These tests
compare uint64 bit patterns, so a build that contracts to an FMA fails
here, and so does a fallback that drifts from the compiled sweep.
"""

import shutil

import numpy as np
import pytest

from repro.core import JavelinILU
from repro.kernels import cached_analysis, native, trisolve
from repro.kernels.trisolve import (
    trisolve_lower,
    trisolve_lower_serial,
    trisolve_upper,
    trisolve_upper_serial,
)
from repro.matrices import grid2d
from repro.kernels.plans import diag_positions
from repro.sparse import CSRMatrix, from_dense, spmv_csr

from helpers import random_csr

SWEEPS = {"lower": (trisolve_lower, trisolve_lower_serial),
          "upper": (trisolve_upper, trisolve_upper_serial)}


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def _assert_equal(got, want, any_nan=False):
    """Equal in uint64 bits; with ``any_nan``, a NaN only has to meet a NaN.

    When both operands of an add are NaN, IEEE 754 leaves open whose
    NaN comes out, and each compiler picks its own operand order (the
    Python scalar loop here returns the other sign than both compiled
    sweeps), so NaN payloads are not part of the contract.
    """
    if any_nan:
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        got, want = got[~nan], want[~nan]
    assert np.array_equal(_bits(got), _bits(want))


def _assert_same_bits(F, B, part, any_nan=False):
    fast, ref = SWEEPS[part]
    _assert_equal(fast(F, B), ref(F, B), any_nan)


@pytest.fixture
def numpy_sweep(monkeypatch):
    """Run the sweeps on the per-level ``csr_matvec(s)`` loop, as without a compiler."""
    monkeypatch.setattr(trisolve, "compiled_sweep", lambda: None)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("k", [1, 4])
def test_level_call_matches_sweep_row(seed, part, k):
    """A random factor's whole sweep, each row and column against ``sweep_row``."""
    rng = np.random.default_rng(seed)
    F = random_csr(120, density=0.15, seed=30 + seed)
    B = rng.standard_normal((F.n_rows,) if k == 1 else (F.n_rows, k))
    _assert_same_bits(F, B, part)


LAYOUTS = {
    "C": lambda B: B,
    "F": np.asfortranarray,
    "strided": lambda B: np.repeat(B, 2, axis=1)[:, ::2],
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("k", [0, 1, 4])
def test_block_layouts(k, part, layout):
    F = random_csr(80, density=0.2, seed=7)
    B = LAYOUTS[layout](np.random.default_rng(k).standard_normal((F.n_rows, k)))
    assert B.shape == (F.n_rows, k)
    _assert_same_bits(F, B, part)


@pytest.mark.parametrize("part", ["lower", "upper"])
def test_one_row(part):
    F = from_dense(np.array([[-3.0]]))
    for B in (np.array([7.0]), np.array([[7.0, -0.0, 1e-300]])):
        _assert_same_bits(F, B, part)


def _poisoned_factor():
    """A factor with NaN, +inf and -inf among its entries, diagonal ones included."""
    F = random_csr(60, density=0.2, seed=11)
    data = F.data.copy()
    data[::7], data[3::11], data[5::13] = np.nan, np.inf, -np.inf
    assert not np.all(np.isfinite(data[diag_positions(F)]))
    return CSRMatrix(F.n_rows, F.n_cols, F.indptr, F.indices, data)


def _poisoned_rhs(n, k):
    B = np.random.default_rng(5).standard_normal((n, k))
    B[::9, 0] = np.nan
    B[2::17, -1] = np.inf
    B[3::23, -1] = -np.inf
    B[1, :] = -0.0
    return B


@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("k", [1, 4])
def test_non_finite_values_propagate_like_the_reference(k, part):
    clean = random_csr(60, density=0.2, seed=11)
    poisoned = _poisoned_factor()
    B = _poisoned_rhs(60, k)
    with np.errstate(all="ignore"):
        for F in (clean, poisoned):
            for rhs in (B[:, 0], B, np.random.default_rng(1).standard_normal((60, k))):
                _assert_same_bits(F, rhs, part, any_nan=True)


@pytest.mark.parametrize("part", ["lower", "upper"])
@pytest.mark.parametrize("k", [1, 4])
def test_numpy_fallback_equals_the_compiled_sweep(k, part, monkeypatch):
    fast, _ = SWEEPS[part]
    F = random_csr(120, density=0.15, seed=3)
    cases = [(F, np.random.default_rng(k).standard_normal((F.n_rows, k)), False),
             (F, _poisoned_rhs(F.n_rows, k), True),
             (_poisoned_factor(), _poisoned_rhs(60, k), True)]
    with np.errstate(all="ignore"):
        compiled = [fast(F, B) for F, B, _ in cases]
        monkeypatch.setattr(trisolve, "compiled_sweep", lambda: None)
        for (F, B, any_nan), want in zip(cases, compiled):
            _assert_equal(fast(F, B), want, any_nan)


def test_numpy_fallback_apply_matches_the_reference(numpy_sweep):
    ilu = JavelinILU().setup(grid2d(10))
    ilu.factor()
    B = np.random.default_rng(0).standard_normal((ilu.F.n_rows, 3))
    X = np.empty(B.shape)
    X[ilu.perm] = trisolve.trisolve_factor(ilu.F, B[ilu.perm])
    assert np.array_equal(_bits(ilu.build_solver()(B)), _bits(X))


@pytest.mark.skipif(shutil.which("cc") is None and shutil.which("gcc") is None,
                    reason="no C compiler on PATH")
def test_compiled_sweep_is_active_when_a_compiler_is_on_path():
    assert native.sweep_status().startswith("compiled: ")
    assert trisolve.compiled_sweep() is not None


def test_compile_flags_keep_the_bits():
    flags = set(native.FLAGS)
    assert "-ffp-contract=off" in flags
    assert not flags & {"-ffast-math", "-Ofast", "-ffp-contract=fast",
                        "-funsafe-math-optimizations", "-fassociative-math", "-freciprocal-math"}


@pytest.mark.parametrize("seed", [0, 1])
def test_spmv_csr_matches_the_row_loop(seed):
    rng = np.random.default_rng(seed)
    A = random_csr(150, density=0.2, seed=40 + seed)
    x = rng.standard_normal(A.n_cols)
    ref = np.zeros(A.n_rows)
    for r in range(A.n_rows):
        s = 0.0
        for kk in range(int(A.indptr[r]), int(A.indptr[r + 1])):
            s += A.data[kk] * x[A.indices[kk]]
        ref[r] = s
    assert np.array_equal(_bits(spmv_csr(A, x)), _bits(ref))


def test_the_compiled_call_refuses_mismatched_buffers():
    """The C loop checks no bounds, so the sizes are checked before the call."""
    F = random_csr(40, density=0.2, seed=2)
    plan = cached_analysis(F).plan("upper")
    vals, diag = trisolve._part_values(F, plan)
    b = np.ones(F.n_rows)
    for args in [(b[:-1], vals, diag), (b, vals[:-1], diag), (b, vals, diag[:-1])]:
        with pytest.raises(ValueError):
            trisolve._level_sweep(F, args[0], plan, *args[1:])


def test_the_numpy_fallback_refuses_mismatched_buffers(numpy_sweep):
    """scipy's ``csr_matvec`` checks no bounds either, so the sizes are checked before it too."""
    test_the_compiled_call_refuses_mismatched_buffers()
