"""The two-stage partition: upper level scheduling vs. lower stage.

§III-A: Javelin applies level scheduling only to levels with "a very
large number of rows so that no thread will run out of work"; levels
that are too small or whose rows are too dense relative to the matrix
average are moved to the end of the matrix and handled by the second
(lower) stage.  Moving a *middle* level would drag every dependent row
along with it, so only a contiguous suffix of levels is eligible —
small levels sandwiched between large ones stay in the upper stage,
which point-to-point synchronization tolerates (Fig. 3).

The partition is computed on the level sets of ``lower(A + Aᵀ)`` (or
``lower(A)``; then Segmented-Rows becomes illegal, §III-B) and produces:

* the list of upper-stage levels (original row ids per level);
* the rows moved to the lower stage (a suffix of the level ordering);
* the full *level permutation* — upper rows grouped by level, lower
  rows at the end — which is the ordering the matrix is copied into;
* the automatic Even-Rows vs. Segmented-Rows choice
  (:func:`auto_lower_method`): ER needs at least as many excluded rows
  as threads so imbalance averages out; SR handles the few-rows case
  (§III-B).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from ..ordering.levelsets import LevelSets, level_schedule

__all__ = ["ScheduleOptions", "TwoStageSchedule", "auto_lower_method", "build_schedule"]


@dataclass(frozen=True)
class ScheduleOptions:
    """User-facing knobs of the two-stage partition (§III-A options).

    Attributes
    ----------
    min_rows_per_level:
        A level in the eligible suffix moves to the lower stage when it
        has fewer rows than this (the sensitivity parameter α of
        Table III's R-16/24/32 columns).
    density_factor:
        A level also moves when the mean nonzeros-per-row of its rows
        exceeds ``density_factor ×`` the matrix's average row density.
    tail_fraction:
        Relative-location option: only levels in the last
        ``tail_fraction`` of the level ordering are eligible to move.
    use_ata:
        Level-schedule on ``lower(A + Aᵀ)`` (default) or ``lower(A)``.
    lower_method:
        "auto" | "er" | "sr" | "none".  "none" keeps everything in the
        upper stage (the paper's LS-only configuration).
    """

    min_rows_per_level: int = 16
    density_factor: float = 4.0
    tail_fraction: float = 0.5
    use_ata: bool = True
    lower_method: str = "auto"


@dataclass
class TwoStageSchedule:
    """Result of the partition, in original row ids."""

    levels: LevelSets  # full level structure (before the split)
    upper_levels: list  # list of np.ndarray of row ids, level order
    lower_rows: np.ndarray  # row ids moved to the end, level order
    options: ScheduleOptions
    chosen_lower_method: str = "none"

    @property
    def n_upper_levels(self):
        return len(self.upper_levels)

    @property
    def n_upper_rows(self):
        return int(sum(len(l) for l in self.upper_levels))

    @property
    def n_lower_rows(self):
        return int(self.lower_rows.shape[0])

    def permutation(self):
        """Gather permutation: upper rows by level, then lower rows.

        Only a suffix of levels moves, so this is the level order itself.
        """
        return self.levels.rows.astype(np.int64)

    def upper_level_ptr(self):
        """Level boundaries in the *permuted* row numbering."""
        sizes = [len(l) for l in self.upper_levels]
        ptr = np.zeros(len(sizes) + 1, dtype=np.int64)
        np.cumsum(sizes, out=ptr[1:])
        return ptr

    def validate(self):
        perm = self.permutation()
        n = self.levels.n_rows
        if perm.shape[0] != n or np.unique(perm).shape[0] != n:
            raise AssertionError("schedule permutation is not a bijection")
        # every upper level must consist of rows of one original level
        for i, rows in enumerate(self.upper_levels):
            lv = self.levels.level_of[np.asarray(rows, dtype=np.int64)]
            if np.unique(lv).shape[0] > 1:
                raise AssertionError(f"upper level {i} mixes original levels")
        # lower rows must be a dependency-closed suffix: no upper row may
        # depend on a lower row, which holds iff lower rows form a suffix
        # of the level ordering.
        if self.n_lower_rows:
            min_lower_level = int(self.levels.level_of[self.lower_rows].min())
            for rows in self.upper_levels:
                if len(rows) and int(self.levels.level_of[np.asarray(rows)].max()) >= min_lower_level:
                    lvs = {int(self.levels.level_of[r]) for r in self.lower_rows}
                    for rows2 in self.upper_levels:
                        bad = [r for r in rows2 if int(self.levels.level_of[r]) in lvs]
                        if bad:
                            raise AssertionError(
                                "upper rows share a level with lower rows"
                            )
        return True


def _count_tail_moves(ls: LevelSets, row_nnz, avg_rd, opts: ScheduleOptions):
    """Which trailing levels move to the lower stage."""
    n_levels = ls.n_levels
    first_eligible = int(np.floor(n_levels * (1.0 - opts.tail_fraction)))
    move = np.zeros(n_levels, dtype=bool)
    for l in range(n_levels - 1, first_eligible - 1, -1):
        rows = ls.level_rows(l)
        small = rows.shape[0] < opts.min_rows_per_level
        dense = (
            avg_rd > 0
            and rows.shape[0] > 0
            and float(row_nnz[rows].mean()) > opts.density_factor * avg_rd
        )
        if small or dense:
            move[l] = True
        else:
            break  # suffix only: stop at the first level that stays
    return move


def auto_lower_method(n_lower, n_threads):
    """The automatic lower-stage order for ``n_lower`` rows on ``n_threads``.

    "none" without lower rows; "auto" while ``n_threads`` is unknown.
    Even-Rows needs at least as many excluded rows as threads, so that
    imbalance averages out (§III-B); with fewer, Segmented-Rows.
    """
    if n_lower == 0:
        return "none"
    if n_threads is None:
        return "auto"
    return "er" if n_lower >= n_threads else "sr"


def build_schedule(
    A: CSRMatrix,
    opts: ScheduleOptions | None = None,
    *,
    n_threads: int | None = None,
    levels: LevelSets | None = None,
) -> TwoStageSchedule:
    """Compute the two-stage schedule for a matrix.

    Parameters
    ----------
    A:
        Square CSR matrix (any preordering already applied).
    opts:
        Partition options; defaults reproduce the paper's configuration.
    n_threads:
        Used by the automatic ER/SR choice ("ER depends on the number of
        rows excluded ... being greater than the number of desired
        threads").  ``None`` defers the choice (method = "auto" stays).
    levels:
        Precomputed level sets (to avoid recomputation in sweeps).
    """
    opts = opts or ScheduleOptions()
    ls = levels if levels is not None else level_schedule(A, use_ata=opts.use_ata)
    row_nnz = A.row_nnz()
    avg_rd = A.row_density()

    if opts.lower_method == "none":
        move = np.zeros(ls.n_levels, dtype=bool)
    else:
        move = _count_tail_moves(ls, row_nnz, avg_rd, opts)

    upper_levels = [ls.level_rows(l).copy() for l in range(ls.n_levels) if not move[l]]
    lower_parts = [ls.level_rows(l) for l in range(ls.n_levels) if move[l]]
    lower_rows = (
        np.concatenate(lower_parts).astype(np.int64)
        if lower_parts
        else np.empty(0, dtype=np.int64)
    )

    method = opts.lower_method
    if method == "auto":
        method = auto_lower_method(lower_rows.shape[0], n_threads)
    if method == "sr" and not opts.use_ata:
        raise ValueError(
            "Segmented-Rows requires the lower(A + A^T) level pattern (use_ata=True)"
        )

    sched = TwoStageSchedule(
        levels=ls,
        upper_levels=upper_levels,
        lower_rows=lower_rows,
        options=opts,
        chosen_lower_method=method,
    )
    sched.validate()
    return sched


def rows_moved_for_alpha(A: CSRMatrix, alphas=(16, 24, 32), *, use_ata=True, levels=None):
    """Table III's R-α: rows moved to the end per sensitivity value α."""
    out = {}
    ls = levels if levels is not None else level_schedule(A, use_ata=use_ata)
    for a in alphas:
        opts = ScheduleOptions(min_rows_per_level=a, use_ata=use_ata)
        sched = build_schedule(A, opts, levels=ls)
        out[a] = sched.n_lower_rows
    return out
