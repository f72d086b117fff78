"""Structural invariant validators for the framework's core objects.

Every kernel in the repo leans on unstated structural assumptions:
sorted, duplicate-free column indices (the merge-style row updates),
a monotone ``indptr`` that starts at 0 and ends at ``nnz``, a
structurally present diagonal wherever a pivot is read, level
structures that really are topological stratifications, and — since the
symbolic cache shares one analysis across factor/solve cycles and
threads — cached arrays that nobody mutates.  This module makes each
assumption an executable check with a precise failure message.

``validate(obj)`` dispatches on type (:class:`~repro.sparse.csr.CSRMatrix`,
:class:`~repro.sparse.csc.CSCMatrix`,
:class:`~repro.ordering.levelsets.LevelSets`,
:class:`~repro.kernels.plans.TriSolvePlan`,
:class:`~repro.kernels.cache.SymbolicAnalysis`) and raises
:class:`InvariantViolation` on the first failure.

:func:`enable_debug_validation` wires the validators into the hot paths
as optional debug hooks: every production kernel call (the
:func:`repro.kernels.hook.kernel` wrapper) validates its matrix/plan
arguments, and every :class:`~repro.kernels.cache.SymbolicCache` lookup
validates the entry it returns (including the frozen-arrays rule, so a
mutated cached array is caught at the next lookup).  The hooks are off by default — they are
sanitizers, not production costs.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..sparse.segscan import segment_ids_from_ptr

__all__ = [
    "InvariantViolation",
    "validate",
    "validate_csr",
    "validate_csc",
    "validate_levels",
    "validate_plan",
    "validate_analysis",
    "enable_debug_validation",
    "disable_debug_validation",
]


class InvariantViolation(ValueError):
    """A structural invariant does not hold; message names the witness."""


def _fail(name: str, message: str) -> None:
    raise InvariantViolation(f"{name}: {message}")


def _check_compressed(name, indptr, indices, n_major, n_minor, *, sorted_unique=True):
    indptr = np.asarray(indptr)
    indices = np.asarray(indices)
    if indptr.shape[0] != n_major + 1:
        _fail(name, f"indptr length {indptr.shape[0]} != {n_major + 1}")
    if n_major >= 0 and indptr.shape[0] and int(indptr[0]) != 0:
        _fail(name, f"indptr[0] = {int(indptr[0])}, must be 0")
    d = np.diff(indptr)
    if np.any(d < 0):
        i = int(np.nonzero(d < 0)[0][0])
        _fail(name, f"indptr decreases at position {i}")
    if int(indptr[-1]) != indices.shape[0]:
        _fail(name, f"indptr[-1] = {int(indptr[-1])} != nnz = {indices.shape[0]}")
    if indices.size and (int(indices.min()) < 0 or int(indices.max()) >= n_minor):
        _fail(name, f"index out of range [0, {n_minor})")
    if sorted_unique:
        for i in range(n_major):
            seg = indices[int(indptr[i]) : int(indptr[i + 1])]
            if seg.shape[0] > 1 and np.any(seg[1:] <= seg[:-1]):
                k = int(np.nonzero(seg[1:] <= seg[:-1])[0][0])
                what = "duplicate" if seg[k + 1] == seg[k] else "unsorted"
                _fail(name, f"{what} indices in major slot {i} (… {int(seg[k])}, {int(seg[k + 1])} …)")


def validate_csr(M: Any, *, require_diagonal: bool = False, name: str = "CSRMatrix") -> bool:
    """Sorted/unique columns, monotone indptr, optional full diagonal."""
    _check_compressed(name, M.indptr, M.indices, M.n_rows, M.n_cols)
    if np.asarray(M.data).shape[0] != np.asarray(M.indices).shape[0]:
        _fail(name, "data and indices lengths disagree")
    if require_diagonal:
        indptr, indices = M.indptr, M.indices
        for r in range(min(M.n_rows, M.n_cols)):
            seg = indices[int(indptr[r]) : int(indptr[r + 1])]
            k = int(np.searchsorted(seg, r))
            if k == seg.shape[0] or int(seg[k]) != r:
                _fail(name, f"diagonal entry ({r}, {r}) structurally absent "
                            "(kernels divide by it)")
    return True


def validate_csc(M: Any, *, name: str = "CSCMatrix") -> bool:
    """CSC mirror of :func:`validate_csr` (rows sorted within a column)."""
    _check_compressed(name, M.indptr, M.indices, M.n_cols, M.n_rows)
    if np.asarray(M.data).shape[0] != np.asarray(M.indices).shape[0]:
        _fail(name, "data and indices lengths disagree")
    return True


def validate_levels(ls: Any, L: Any = None, *, name: str = "LevelSets") -> bool:
    """level_ptr / level_of / rows mutual consistency (+ optional DAG check).

    With ``L`` (a lower-triangular dependency pattern) the full
    topological-stratification property is checked too — every row's
    level must exceed the levels of all its strict-lower dependencies.
    """
    level_of = np.asarray(ls.level_of)
    level_ptr = np.asarray(ls.level_ptr)
    rows = np.asarray(ls.rows)
    n = rows.shape[0]
    if level_of.shape[0] != n:
        _fail(name, f"level_of length {level_of.shape[0]} != n_rows {n}")
    if np.any(np.diff(level_ptr) < 0):
        _fail(name, "level_ptr not monotone")
    if level_ptr.shape[0] == 0 or int(level_ptr[0]) != 0 or int(level_ptr[-1]) != n:
        _fail(name, "level_ptr endpoints must be 0 and n_rows")
    if not np.array_equal(np.sort(rows), np.arange(n)):
        _fail(name, "rows is not a permutation of 0..n-1")
    n_levels = level_ptr.shape[0] - 1
    if n and (int(level_of.min()) < 0 or int(level_of.max()) >= n_levels):
        _fail(name, "level_of value outside [0, n_levels)")
    for lvl in range(n_levels):
        grp = rows[int(level_ptr[lvl]) : int(level_ptr[lvl + 1])]
        if np.any(level_of[grp] != lvl):
            _fail(name, f"rows grouped under level {lvl} carry a different level_of")
    if L is not None:
        indptr, indices = L.indptr, L.indices
        for r in range(n):
            cols = indices[int(indptr[r]) : int(indptr[r + 1])]
            deps = cols[cols < r]
            if deps.size and int(level_of[r]) <= int(level_of[deps].max()):
                _fail(name, f"row {r}: level not strictly above its dependencies")
    return True


def validate_plan(plan: Any, pattern: Any = None, *, name: str = "TriSolvePlan") -> bool:
    """Internal consistency of a batched triangular-sweep plan.

    The compiled sweep does no bounds checks, so every index it follows
    is checked here: ``ent_ptr`` ascends to the entry count, and each
    entry's ``ent_col`` lies before its row's level, so a row reads only
    rows already solved.  With ``pattern``, ``ent_col`` must also be the
    level position of the entry's stored column.
    """
    if plan.part not in ("lower", "upper"):
        _fail(name, f"unknown part {plan.part!r}")
    n = int(plan.n)
    rows = np.asarray(plan.rows)
    if not np.array_equal(np.sort(rows), np.arange(n)):
        _fail(name, "rows is not a permutation")
    level_ptr = np.asarray(plan.level_ptr, dtype=np.int64)
    if not _ptr_ok(level_ptr, level_ptr.shape[0], n):
        _fail(name, "level_ptr not monotone or does not cover all rows")
    ent = np.asarray(plan.ent_idx)
    ent_ptr = np.asarray(plan.ent_ptr, dtype=np.int64)
    if not _ptr_ok(ent_ptr, n + 1, ent.shape[0]):
        _fail(name, "ent_ptr must ascend from 0 to the number of plan entries")
    ent_col = np.asarray(plan.ent_col, dtype=np.int64)
    if ent_col.shape != ent.shape:
        _fail(name, "ent_col and ent_idx lengths disagree")
    if ent.size:
        pos = segment_ids_from_ptr(ent_ptr)
        start = level_ptr[np.searchsorted(level_ptr, pos, side="right") - 1]
        bad = (ent_col < 0) | (ent_col >= start)
        if np.any(bad):
            p = int(pos[np.flatnonzero(bad)[0]])
            _fail(name, f"row {int(rows[p])} reads a column outside the levels before its own")
    if plan.part == "upper" and plan.diag_idx is None:
        _fail(name, "upper plan is missing diag_idx")
    if pattern is not None:
        indices = np.asarray(pattern.indices)
        nnz = indices.shape[0]
        if ent.size and (int(ent.min()) < 0 or int(ent.max()) >= nnz):
            _fail(name, "ent_idx outside the pattern's storage")
        if not np.array_equal(rows[ent_col], indices[ent]):
            _fail(name, "ent_col does not match the pattern's columns")
        if plan.diag_idx is not None:
            di = np.asarray(plan.diag_idx)
            if di.size and (int(di.min()) < 0 or int(di.max()) >= nnz):
                _fail(name, "diag_idx outside the pattern's storage")
    return True


def _ptr_ok(ptr: np.ndarray, length: int, total: int) -> bool:
    return (ptr.shape[0] == length and int(ptr[0]) == 0 and int(ptr[-1]) == total
            and not np.any(np.diff(ptr) < 0))


def _assert_frozen(arr: Any, what: str, name: str) -> None:
    if isinstance(arr, np.ndarray) and arr.flags.writeable:
        _fail(name, f"cached array {what} is writeable — cache entries must be "
                    "frozen (ndarray.flags.writeable = False)")


def validate_analysis(ana: Any, *, name: str = "SymbolicAnalysis") -> bool:
    """Cached symbolic products are structurally valid *and* frozen.

    Walks every product already materialized in the analysis' memo (it
    never forces a build) and checks (a) the per-type invariants above
    and (b) that every ndarray is read-only, so an accidental in-place
    mutation of a shared cache entry is caught at the next lookup.
    """
    from ..kernels.cache import SymbolicAnalysis  # noqa: F401  (type anchor)
    from ..kernels.plans import TriSolvePlan
    from ..ordering.levelsets import LevelSets
    from ..sched.elastic import ElasticSchedule
    from ..sched.superstep import SuperstepPlan, validate_superstep_plan

    pat = getattr(ana, "_pattern", None)
    if pat is not None:
        validate_csr(pat, name=f"{name}._pattern")
    for key, value in list(getattr(ana, "_memo", {}).items()):
        where = f"{name}[{key!r}]"
        items = value if isinstance(value, tuple) else (value,)
        for item in items:
            if isinstance(item, np.ndarray):
                _assert_frozen(item, key, name)
            elif isinstance(item, LevelSets):
                validate_levels(item, name=where)
                for f in ("level_of", "level_ptr", "rows"):
                    _assert_frozen(getattr(item, f), f"{key}.{f}", name)
            elif isinstance(item, TriSolvePlan):
                validate_plan(item, pat, name=where)
                for f in ("rows", "level_ptr", "ent_idx", "ent_ptr", "ent_col", "diag_idx"):
                    _assert_frozen(getattr(item, f), f"{key}.{f}", name)
            elif isinstance(item, SuperstepPlan):
                if pat is not None:
                    errs = validate_superstep_plan(item, pat)
                    if errs:
                        _fail(where, errs[0])
                for f in ("rows", "step_ptr", "thread_ptr", "thread_of", "step_of",
                          "level_of", "step_level_ptr"):
                    arr = getattr(item, f, None)
                    if arr is not None:
                        _assert_frozen(arr, f"{key}.{f}", name)
            elif isinstance(item, ElasticSchedule):
                if pat is not None:
                    from .deadlock import check_elastic_schedule

                    rep = check_elastic_schedule(item, pat)
                    if not rep.ok:
                        first = rep.witnesses[0].detail if rep.witnesses else rep.errors[0]
                        _fail(where, first)
                for f in ("rows", "level_of", "level_ptr", "block_of",
                          "final_sweep", "ent_ptr", "ent_idx", "diag_idx"):
                    arr = getattr(item, f, None)
                    if arr is not None:
                        _assert_frozen(arr, f"{key}.{f}", name)
    return True


def validate(obj: Any, **kw: Any) -> bool:
    """Type-dispatched validation; raises :class:`InvariantViolation`."""
    from ..kernels.cache import SymbolicAnalysis
    from ..kernels.plans import TriSolvePlan
    from ..ordering.levelsets import LevelSets
    from ..sparse.csc import CSCMatrix
    from ..sparse.csr import CSRMatrix

    if isinstance(obj, CSRMatrix):
        return validate_csr(obj, **kw)
    if isinstance(obj, CSCMatrix):
        return validate_csc(obj, **kw)
    if isinstance(obj, LevelSets):
        return validate_levels(obj, **kw)
    if isinstance(obj, TriSolvePlan):
        return validate_plan(obj, **kw)
    if isinstance(obj, SymbolicAnalysis):
        return validate_analysis(obj, **kw)
    raise TypeError(f"no invariant validator for {type(obj).__name__}")


# ----------------------------------------------------------------------
# debug hooks: wire the validators into kernel calls + cache lookups
# ----------------------------------------------------------------------
def _kernel_argument_validator(name, args, kwargs):
    from ..kernels.plans import TriSolvePlan
    from ..sparse.csr import CSRMatrix

    given = list(args) + list(kwargs.values())
    factor = next((a for a in given if isinstance(a, CSRMatrix)), None)
    for a in given:
        if isinstance(a, CSRMatrix):
            validate_csr(a, name=f"kernel {name} CSR argument")
        elif isinstance(a, TriSolvePlan):
            validate_plan(a, factor, name=f"kernel {name} plan argument")


def enable_debug_validation() -> None:
    """Install the invariant validators on the hot-path hooks."""
    from ..kernels import cache, hook

    hook.set_kernel_validator(_kernel_argument_validator)
    cache.set_validation_hook(validate_analysis)


def disable_debug_validation() -> None:
    """Remove the hooks installed by :func:`enable_debug_validation`."""
    from ..kernels import cache, hook

    hook.set_kernel_validator(None)
    cache.set_validation_hook(None)
