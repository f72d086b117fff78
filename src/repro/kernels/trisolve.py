"""Triangular-sweep kernels: scalar reference and level-batched backend.

Both backends implement the same contract on the combined L\\U factor:

* ``trisolve_lower``: solve ``L y = b`` with unit diagonal, reading the
  strict-lower entries of each row in ascending column order;
* ``trisolve_upper``: solve ``U x = y`` reading the strict-upper entries
  in ascending column order, then dividing by the diagonal.

The per-row accumulation is ``s = 0; s += data[k] * sol[col[k]]`` in
entry order followed by a single ``rhs - s`` (and ``/ diag`` for the
upper sweep).  The batched backend reproduces this *bit-for-bit*: rows
of a level are independent, so each level is one gather/multiply pass,
and ``np.bincount`` performs the per-row segment sums strictly
sequentially in the same entry order.  Tests assert exact equality, not
closeness.

The ``*_multi`` kernels extend the contract to a 2-D right-hand side
``B`` of shape ``(n, k)`` — the multi-RHS sweeps behind the serving
layer's micro-batches (:mod:`repro.serve`).  Column ``j`` of the result
is bit-identical to the 1-RHS sweep on ``B[:, j]``: the batched backend
flattens the per-level segment sum to bins ``(local_row * k + column)``,
so each ``(row, column)`` bin accumulates its entries in exactly the
ascending entry order of the 1-RHS ``np.bincount`` — same products,
same addition order, same floats.  What batching buys is amortization:
the per-level gather/reduce overhead (the dominant cost on the many
small levels of a triangular schedule) is paid once per level instead
of once per level *per request*.
"""

from __future__ import annotations

import numpy as np

from .cache import cached_analysis
from .registry import register_kernel

__all__ = []  # access via repro.kernels.get_kernel


# ----------------------------------------------------------------------
# scalar reference
# ----------------------------------------------------------------------
@register_kernel("trisolve_lower", "scalar")
def trisolve_lower_scalar(F, b, plan=None):
    """Forward solve ``L y = b`` (unit diagonal), one row at a time."""
    b = np.asarray(b, dtype=np.float64)
    n = F.n_rows
    y = np.empty(n)
    indptr, indices, data = F.indptr, F.indices, F.data
    for i in range(n):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        cols = indices[lo:hi]
        cut = int(np.searchsorted(cols, i))
        s = 0.0
        for kk in range(lo, lo + cut):
            s += data[kk] * y[indices[kk]]
        y[i] = b[i] - s
    return y


@register_kernel("trisolve_upper", "scalar")
def trisolve_upper_scalar(F, y, plan=None):
    """Backward solve ``U x = y``, one row at a time."""
    y = np.asarray(y, dtype=np.float64)
    n = F.n_rows
    x = np.empty(n)
    indptr, indices, data = F.indptr, F.indices, F.data
    for i in range(n - 1, -1, -1):
        lo, hi = int(indptr[i]), int(indptr[i + 1])
        cols = indices[lo:hi]
        cut = int(np.searchsorted(cols, i))
        if cut >= hi - lo or cols[cut] != i:
            raise ValueError(f"missing diagonal in factored row {i}")
        s = 0.0
        for kk in range(lo + cut + 1, hi):
            s += data[kk] * x[indices[kk]]
        x[i] = (y[i] - s) / data[lo + cut]
    return x


# ----------------------------------------------------------------------
# level-batched backend
# ----------------------------------------------------------------------
def _resolve_plan(F, part, plan):
    if plan is None:
        plan = cached_analysis(F).plan(part)
    elif plan.part != part:
        raise ValueError(f"plan is for part {plan.part!r}, kernel needs {part!r}")
    return plan


@register_kernel("trisolve_lower", "batched", default=True)
def trisolve_lower_batched(F, b, plan=None):
    """Forward solve, one gather/multiply/segment-reduce per level."""
    plan = _resolve_plan(F, "lower", plan)
    b = np.asarray(b, dtype=np.float64)
    data, indices = F.data, F.indices
    y = np.empty(plan.n)
    rows, level_ptr = plan.rows, plan.level_ptr
    ent_idx, ent_local, eptr = plan.ent_idx, plan.ent_local, plan.lev_ent_ptr
    for l in range(plan.n_levels):
        rlo, rhi = level_ptr[l], level_ptr[l + 1]
        rows_l = rows[rlo:rhi]
        elo, ehi = eptr[l], eptr[l + 1]
        if ehi > elo:
            ents = ent_idx[elo:ehi]
            prod = data[ents] * y[indices[ents]]
            s = np.bincount(ent_local[elo:ehi], weights=prod, minlength=rhi - rlo)
        else:
            s = 0.0
        y[rows_l] = b[rows_l] - s
    return y


@register_kernel("trisolve_upper", "batched", default=True)
def trisolve_upper_batched(F, y, plan=None):
    """Backward solve, one gather/multiply/segment-reduce per level."""
    plan = _resolve_plan(F, "upper", plan)
    y = np.asarray(y, dtype=np.float64)
    data, indices = F.data, F.indices
    x = np.empty(plan.n)
    rows, level_ptr = plan.rows, plan.level_ptr
    ent_idx, ent_local, eptr = plan.ent_idx, plan.ent_local, plan.lev_ent_ptr
    diag_idx = plan.diag_idx
    for l in range(plan.n_levels):
        rlo, rhi = level_ptr[l], level_ptr[l + 1]
        rows_l = rows[rlo:rhi]
        elo, ehi = eptr[l], eptr[l + 1]
        if ehi > elo:
            ents = ent_idx[elo:ehi]
            prod = data[ents] * x[indices[ents]]
            s = np.bincount(ent_local[elo:ehi], weights=prod, minlength=rhi - rlo)
        else:
            s = 0.0
        x[rows_l] = (y[rows_l] - s) / data[diag_idx[rows_l]]
    return x


# ----------------------------------------------------------------------
# multi-RHS sweeps
# ----------------------------------------------------------------------
def _as_block(B):
    B = np.asarray(B, dtype=np.float64)
    if B.ndim != 2:
        raise ValueError(f"multi-RHS kernels take a 2-D block, got shape {B.shape}")
    return B


@register_kernel("trisolve_lower_multi", "scalar")
def trisolve_lower_multi_scalar(F, B, plan=None):
    """Forward solve ``L Y = B``, one column at a time (reference)."""
    B = _as_block(B)
    cols = [trisolve_lower_scalar(F, B[:, j], plan=plan) for j in range(B.shape[1])]
    return np.stack(cols, axis=1) if cols else np.empty((F.n_rows, 0))


@register_kernel("trisolve_upper_multi", "scalar")
def trisolve_upper_multi_scalar(F, Y, plan=None):
    """Backward solve ``U X = Y``, one column at a time (reference)."""
    Y = _as_block(Y)
    cols = [trisolve_upper_scalar(F, Y[:, j], plan=plan) for j in range(Y.shape[1])]
    return np.stack(cols, axis=1) if cols else np.empty((F.n_rows, 0))


@register_kernel("trisolve_lower_multi", "batched", default=True)
def trisolve_lower_multi_batched(F, B, plan=None):
    """Forward solve ``L Y = B``: one gather/reduce per level for all columns.

    Per column bit-identical to :func:`trisolve_lower_batched` (and so
    to the scalar reference): the flattened bins ``local_row * k + j``
    keep each column's per-row accumulation in the same ascending entry
    order as the 1-RHS segment sum.
    """
    plan = _resolve_plan(F, "lower", plan)
    B = _as_block(B)
    k = B.shape[1]
    if k == 0:
        return np.empty((plan.n, 0))
    data, indices = F.data, F.indices
    Y = np.empty((plan.n, k))
    rows, level_ptr = plan.rows, plan.level_ptr
    ent_idx, ent_local, eptr = plan.ent_idx, plan.ent_local, plan.lev_ent_ptr
    col_ix = np.arange(k, dtype=np.int64)
    for l in range(plan.n_levels):
        rlo, rhi = level_ptr[l], level_ptr[l + 1]
        rows_l = rows[rlo:rhi]
        elo, ehi = eptr[l], eptr[l + 1]
        if ehi > elo:
            ents = ent_idx[elo:ehi]
            prod = data[ents, None] * Y[indices[ents], :]
            bins = (ent_local[elo:ehi, None] * k + col_ix).ravel()
            s = np.bincount(
                bins, weights=prod.ravel(), minlength=(rhi - rlo) * k
            ).reshape(rhi - rlo, k)
        else:
            s = 0.0
        Y[rows_l, :] = B[rows_l, :] - s
    return Y


@register_kernel("trisolve_upper_multi", "batched", default=True)
def trisolve_upper_multi_batched(F, Y, plan=None):
    """Backward solve ``U X = Y`` for all columns at once (see lower)."""
    plan = _resolve_plan(F, "upper", plan)
    Y = _as_block(Y)
    k = Y.shape[1]
    if k == 0:
        return np.empty((plan.n, 0))
    data, indices = F.data, F.indices
    X = np.empty((plan.n, k))
    rows, level_ptr = plan.rows, plan.level_ptr
    ent_idx, ent_local, eptr = plan.ent_idx, plan.ent_local, plan.lev_ent_ptr
    diag_idx = plan.diag_idx
    col_ix = np.arange(k, dtype=np.int64)
    for l in range(plan.n_levels):
        rlo, rhi = level_ptr[l], level_ptr[l + 1]
        rows_l = rows[rlo:rhi]
        elo, ehi = eptr[l], eptr[l + 1]
        if ehi > elo:
            ents = ent_idx[elo:ehi]
            prod = data[ents, None] * X[indices[ents], :]
            bins = (ent_local[elo:ehi, None] * k + col_ix).ravel()
            s = np.bincount(
                bins, weights=prod.ravel(), minlength=(rhi - rlo) * k
            ).reshape(rhi - rlo, k)
        else:
            s = 0.0
        X[rows_l, :] = (Y[rows_l, :] - s) / data[diag_idx[rows_l], None]
    return X


# ----------------------------------------------------------------------
# elastic (stale-synchronous) sweeps — thin dispatch shims
# ----------------------------------------------------------------------
@register_kernel("trisolve_lower_elastic", "batched", default=True)
def trisolve_lower_elastic_batched(
    F, b, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Forward solve via stale-synchronous correction sweeps."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("lower", staleness=staleness)
    return elastic_solve_part(F, b, sched, tol=tol, max_sweeps=max_sweeps)


@register_kernel("trisolve_lower_elastic", "scalar")
def trisolve_lower_elastic_scalar(
    F, b, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Forward stale-synchronous solve, per-row reference backend."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("lower", staleness=staleness)
    return elastic_solve_part(
        F, b, sched, tol=tol, max_sweeps=max_sweeps, backend="scalar"
    )


@register_kernel("trisolve_upper_elastic", "batched", default=True)
def trisolve_upper_elastic_batched(
    F, y, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Backward solve via stale-synchronous correction sweeps."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("upper", staleness=staleness)
    return elastic_solve_part(F, y, sched, tol=tol, max_sweeps=max_sweeps)


@register_kernel("trisolve_upper_elastic", "scalar")
def trisolve_upper_elastic_scalar(
    F, y, sched=None, *, staleness=4, tol=0.0, max_sweeps=128
):
    """Backward stale-synchronous solve, per-row reference backend."""
    from ..sched.elastic import elastic_solve_part

    if sched is None:
        sched = cached_analysis(F).elastic_schedule("upper", staleness=staleness)
    return elastic_solve_part(
        F, y, sched, tol=tol, max_sweeps=max_sweeps, backend="scalar"
    )
