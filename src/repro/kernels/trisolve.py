"""Triangular-sweep kernels: scalar references and level-batched sweeps.

Both forms implement the same contract on the combined L\\U factor:

* ``trisolve_lower``: solve ``L y = b`` with unit diagonal, reading the
  strict-lower entries of each row in ascending column order;
* ``trisolve_upper``: solve ``U x = y`` reading the strict-upper entries
  in ascending column order, then dividing by the diagonal.

The right-hand side is a vector of shape ``(n,)`` or a block of shape
``(n, k)``; any other shape raises ``ValueError``.  The per-row
accumulation is ``s = 0; s += data[k] * sol[col[k]]`` in entry order
followed by a single ``rhs - s`` (and ``/ diag`` for the upper sweep).
:func:`sweep_row` is that row; the scalar references
:func:`trisolve_lower_serial` and :func:`trisolve_upper_serial` run it
over the rows of one column at a time.

The production sweeps :func:`trisolve_lower` and :func:`trisolve_upper`
reproduce them *bit-for-bit*: rows of a level are independent, and the
plan stores them in level order with columns remapped to level
positions, so one pass over the positions in order reads only final
values.  :func:`_level_sweep` makes that pass one call into a small C
row loop (``level_sweep.c``, built and loaded by :mod:`.native`), which
sums every row from zero in entry order, as the scalar loop does.  A
block runs one axpy per entry across its ``k`` columns, so column ``j``
of a block solve equals the solve of ``B[:, j]``.  Python is entered
once per sweep, not once per level, which was the dominant cost on the
many small levels of a triangular schedule.  Without a C compiler the
sweep falls back to one call of scipy's compiled ``csr_matvec`` per
level (``csr_matvecs`` for a block; :func:`_level_loop`), with the same
bits.  Tests assert exact equality, not closeness.  The bits rest on no
multiply-add being fused: the library is built with
``-ffp-contract=off`` (:data:`.native.FLAGS`), and
:mod:`repro.sparse.spmv` lists the same risk for the scipy loops.

The whole solve ``x = U⁻¹ L⁻¹ b`` has the scalar reference
:func:`trisolve_factor` and one production form, :func:`factor_solver`,
which builds a factor's apply once: the factor "may only be formed
once, but stri may be called thousands of times" (§VI), so every value
gather and index map that depends only on the factor happens at build
time, and a call is a gather, the lower sweep, a gather, the upper
sweep and a gather back.

Threads: ctypes releases the GIL for each compiled sweep.  One apply may
be called from several threads at once, because a call only reads the
apply's private copies of the values and writes buffers it allocates.
Callers must not mutate what a running call reads: ``B``, ``F.data``
for a part kernel, or the ``vals`` and ``diag`` handed to
:func:`_level_sweep`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..sparse.spmv import csr_matvec, csr_matvecs
from .cache import cached_analysis
from .hook import kernel
from .native import compiled_sweep

__all__ = ["sweep_row", "trisolve_lower_serial", "trisolve_upper_serial", "trisolve_factor",
           "trisolve_lower", "trisolve_upper", "apply_maps", "factor_solver"]


def as_rhs(B, n_rows):
    """``B`` as float64, rejecting anything but shape ``(n_rows,)`` or ``(n_rows, k)``."""
    B = np.asarray(B, dtype=np.float64)
    if B.ndim not in (1, 2) or B.shape[0] != n_rows:
        raise ValueError(
            f"right-hand side of shape {B.shape} does not match {n_rows} rows"
        )
    return B


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------
def sweep_row(F, rhs, out, r, upper):
    """Row ``r`` of a triangular sweep of ``F``: ``out[r]`` from ``rhs[r]``.

    Reads ``out`` at the row's strict-lower (``upper`` False, unit
    diagonal) or strict-upper entries, which must already be final, and
    accumulates them sequentially in entry order (``np.dot`` may pair
    products).  The upper sweep divides by the stored diagonal and
    raises ``ValueError`` when the row has none.
    """
    lo, hi = int(F.indptr[r]), int(F.indptr[r + 1])
    indices, data = F.indices, F.data
    cut = lo + int(np.searchsorted(indices[lo:hi], r))
    s = 0.0
    if upper:
        if cut >= hi or indices[cut] != r:
            raise ValueError(f"missing diagonal in factored row {r}")
        for kk in range(cut + 1, hi):
            s += data[kk] * out[indices[kk]]
        out[r] = (rhs[r] - s) / data[cut]
    else:
        for kk in range(lo, cut):
            s += data[kk] * out[indices[kk]]
        out[r] = rhs[r] - s


def _row_sweep(F, B, upper):
    B = as_rhs(B, F.n_rows)
    X = np.empty(B.shape)
    rows = range(F.n_rows - 1, -1, -1) if upper else range(F.n_rows)
    for rhs, out in [(B, X)] if B.ndim == 1 else zip(B.T, X.T):
        for r in rows:
            sweep_row(F, rhs, out, r, upper)
    return X


def trisolve_lower_serial(F, b):
    """Forward solve ``L y = b`` (unit diagonal), one row at a time (scalar reference)."""
    return _row_sweep(F, b, upper=False)


def trisolve_upper_serial(F, y):
    """Backward solve ``U x = y``, one row at a time (scalar reference)."""
    return _row_sweep(F, y, upper=True)


def trisolve_factor(F, b):
    """The full solve ``x = U⁻¹ L⁻¹ b``, one row at a time (scalar reference)."""
    return trisolve_upper_serial(F, trisolve_lower_serial(F, b))


# ----------------------------------------------------------------------
# level-batched sweeps
# ----------------------------------------------------------------------
def _resolve_plan(F, part, plan):
    if plan is None:
        return cached_analysis(F).plan(part)
    if plan.part != part:
        raise ValueError(f"plan is for part {plan.part!r}, kernel needs {part!r}")
    if plan.n != F.n_rows:
        raise ValueError(f"plan is for {plan.n} rows, the factor has {F.n_rows}")
    return plan


def _part_values(F, plan):
    """The level-ordered values a sweep of ``plan`` reads: entries, diagonal (upper only)."""
    diag = F.data[plan.diag_idx[plan.rows]] if plan.part == "upper" else None
    return F.data[plan.ent_idx], diag


def _level_sweep(F, Bp, plan, vals, diag):
    """Solve the level-ordered ``Bp`` over ``plan``: one compiled call per sweep.

    ``Bp`` is ``(n,)`` or ``(n, k)`` with row ``p`` holding ``plan.rows[p]``,
    and so is the returned solution, a fresh buffer.  ``vals`` and
    ``diag`` are :func:`_part_values`; the sweep divides by ``diag``
    unless it is None.  The C row loop (:mod:`.native`) runs every
    position in level order on contiguous row-major storage; without it,
    :func:`_level_loop` gives the same bits.  ``F`` is not read here: it
    rides along so the kernel hook can validate the plan against it.
    """
    # neither loop checks bounds: each reads n rows of b, every entry value and n diagonals
    b = np.ascontiguousarray(Bp, dtype=np.float64)
    if b.shape[0] != plan.n:
        raise ValueError(f"right-hand side has {b.shape[0]} rows, the plan {plan.n}")
    vals = np.ascontiguousarray(vals, dtype=np.float64)
    if vals.shape != (plan.ent_ptr[-1],) or diag is not None and diag.shape != (plan.n,):
        raise ValueError("entry values or diagonal do not match the plan")
    sweep = compiled_sweep()
    if sweep is None:
        return _level_loop(b, plan, vals, diag)
    if diag is not None:
        diag = np.ascontiguousarray(diag, dtype=np.float64)
    X = np.empty(b.shape)
    sweep(plan.n, 1 if b.ndim == 1 else b.shape[1], *plan.addresses, _address(vals),
          None if diag is None else _address(diag), _address(b), _address(X))
    return X


def _address(a):
    """``a.ctypes.data`` of a contiguous ``a``, in a third of the time if ``a`` is writable."""
    if a.flags.writeable and a.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    return a.ctypes.data


def _level_loop(Bp, plan, vals, diag):
    """:func:`_level_sweep` without a compiler: one ``csr_matvec(s)`` per level.

    Level ``l`` reads only earlier levels' rows of the solution, so its
    sums are one call into a zeroed buffer.  A block runs on its flat
    row-major storage, where a level is one contiguous slice.
    """
    k = 1 if Bp.ndim == 1 else Bp.shape[1]
    b = Bp.ravel()
    Xp = np.empty(b.shape)
    s = np.zeros(b.shape)
    ptr, cols, n = plan.ent_ptr, plan.ent_col, plan.n
    if diag is not None and k > 1:
        diag = np.repeat(diag, k)
    bounds = plan.level_ptr.tolist()
    for r0, r1 in zip(bounds[:-1], bounds[1:]):
        lo, hi = r0 * k, r1 * k
        if k == 1:
            csr_matvec(r1 - r0, n, ptr[r0 : r1 + 1], cols, vals, Xp, s[lo:hi])
        else:
            csr_matvecs(r1 - r0, n, k, ptr[r0 : r1 + 1], cols, vals, Xp, s[lo:hi])
        x = np.subtract(b[lo:hi], s[lo:hi], out=Xp[lo:hi])
        if diag is not None:
            np.divide(x, diag[lo:hi], out=x)
    return Xp.reshape(Bp.shape)


def _part_solve(F, B, plan):
    B = as_rhs(B, F.n_rows)
    X = np.empty(B.shape)
    X[plan.rows] = _level_sweep(F, B.take(plan.rows, axis=0), plan, *_part_values(F, plan))
    return X


@kernel
def trisolve_lower(F, b, plan=None):
    """Forward solve, one compiled row-sum call per level."""
    return _part_solve(F, b, _resolve_plan(F, "lower", plan))


@kernel
def trisolve_upper(F, y, plan=None):
    """Backward solve, one compiled row-sum call per level, then the diagonal divide."""
    return _part_solve(F, y, _resolve_plan(F, "upper", plan))


# the two sweeps of a factor apply, traced and validated as the part kernels
_lower_sweep = kernel(_level_sweep, name="trisolve_lower")
_upper_sweep = kernel(_level_sweep, name="trisolve_upper")


def apply_maps(analysis, perm=None):
    """The index maps of a factor apply, which depend only on the pattern and ``perm``.

    Returns read-only ``(rows_in, mid, pos_out)``: the apply gathers the
    caller's rows ``rows_in`` into the lower sweep's level order, its
    positions ``mid`` into the upper sweep's, and the upper positions
    ``pos_out`` back into the caller's order.  ``analysis`` is the
    pattern's :class:`~repro.kernels.cache.SymbolicAnalysis`.  ``perm``
    is the gather permutation of a factor of ``P A Pᵀ`` (row ``i`` of the
    factor is row ``perm[i]`` of the caller's order); None means the
    factor is in the caller's order.
    """
    lower, upper = analysis.plan("lower"), analysis.plan("upper")
    ramp = np.arange(lower.n)
    pos_lower = np.empty(lower.n, dtype=np.int64)
    pos_lower[lower.rows] = ramp
    rows_in, rows_out = lower.rows, upper.rows
    if perm is not None:
        rows_in, rows_out = perm[rows_in], perm[rows_out]
    pos_out = np.empty(lower.n, dtype=np.int64)
    pos_out[rows_out] = ramp
    maps = (rows_in, pos_lower[upper.rows], pos_out)
    for a in maps:
        a.flags.writeable = False
    return maps


def factor_solver(F, analysis=None, maps=None):
    """The preconditioner apply ``X = U⁻¹ L⁻¹ B`` of the combined factor ``F``.

    Everything that depends only on the factor is done here, once: both
    plans (so a missing diagonal raises now, not mid-solve), the
    level-ordered entry values and upper diagonal, and the index maps of
    :func:`apply_maps` from the caller's row order into the lower
    sweep's level order, from there into the upper sweep's, and back
    out.  ``analysis`` defaults to ``cached_analysis(F)``, which hashes
    ``F``'s pattern.  ``maps`` defaults to ``apply_maps(analysis)``, for
    a factor in the caller's row order; the factor of ``P A Pᵀ`` passes
    ``maps=apply_maps(analysis, perm)``, composed once per pattern and
    permutation and shared by every refactor's apply.

    ``apply(B)`` takes a vector ``(n,)`` or a block ``(n, k)``: one shape
    check, one gather, the lower sweep, one gather, the upper sweep and
    one gather back.  It equals :func:`trisolve_factor` of ``B[perm]``,
    scattered back through ``perm`` (the identity for the default maps),
    bit for bit and column by column.
    The apply holds copies of the values, so a later refactor leaves it
    unchanged.  It only reads those copies and writes fresh buffers, so
    several threads may call one apply at once.
    """
    if analysis is None:
        analysis = cached_analysis(F)
    if maps is None:
        maps = apply_maps(analysis)
    rows_in, mid, pos_out = maps
    lower, upper = analysis.plan("lower"), analysis.plan("upper")
    lower_vals, _ = _part_values(F, lower)
    upper_vals, diag = _part_values(F, upper)
    n = F.n_rows

    def apply(B):
        B = as_rhs(B, n)
        Y = _lower_sweep(F, B.take(rows_in, axis=0), lower, lower_vals, None)
        Xp = _upper_sweep(F, Y.take(mid, axis=0), upper, upper_vals, diag)
        return Xp.take(pos_out, axis=0)

    return apply
