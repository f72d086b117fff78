"""Level-set scheduling order.

The heart of Javelin's upper stage (§III-A).  Up-looking ILU of row
``r`` reads rows ``c < r`` with ``a_{rc} ≠ 0`` — the same dependency
DAG as a lower triangular solve — so rows are grouped into *levels*:

    level(r) = 1 + max(level(c) : c < r, a_{rc} ≠ 0),  level = 0 if none.

All rows in a level are mutually independent and can be factored
concurrently.  The paper computes levels on the pattern of ``lower(A)``
or ``lower(A + Aᵀ)``; the latter guarantees the intra-block column
independence the Segmented-Rows method needs (§III-B) and is the default.

The induced *level ordering* (sort rows by level, stable within a
level) is the permutation Javelin applies while copying A into the L/U
CSR structure; LS-RCM / LS-ND in Table II are exactly this ordering
imposed on an RCM- or ND-preordered matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..sparse.csr import CSRMatrix
from ..sparse.pattern import symmetrize_pattern

__all__ = ["LevelSets", "level_schedule", "level_set_stats"]


@dataclass
class LevelSets:
    """Level structure of a lower-triangular dependency pattern.

    Attributes
    ----------
    level_of:
        ``level_of[r]`` is the level index of row ``r`` (original ids).
    level_ptr:
        Length ``n_levels + 1``; level ``l`` holds rows
        ``rows[level_ptr[l]:level_ptr[l+1]]``.
    rows:
        Row ids grouped by level, ascending row id within a level.
    """

    level_of: np.ndarray
    level_ptr: np.ndarray
    rows: np.ndarray

    @property
    def n_levels(self):
        return self.level_ptr.shape[0] - 1

    @property
    def n_rows(self):
        return self.rows.shape[0]

    def level_rows(self, l):
        """Rows of level ``l`` (ascending original ids)."""
        return self.rows[self.level_ptr[l] : self.level_ptr[l + 1]]

    def level_sizes(self):
        return np.diff(self.level_ptr)

    def permutation(self):
        """The level ordering as a gather permutation (new ← old)."""
        return self.rows.copy()


def level_schedule(A: CSRMatrix, *, use_ata: bool = True) -> LevelSets:
    """Level sets of ``lower(A + Aᵀ)`` (default) or ``lower(A)``.

    ``use_ata=True`` is the framework default: it makes the schedule
    valid for both L and U sweeps and enables the Segmented-Rows lower
    stage (§III-B, §VII Table IV discussion).
    """
    from ..kernels.plans import forward_level_sets  # plans imports LevelSets from here

    return forward_level_sets(symmetrize_pattern(A) if use_ata else A)


def level_set_stats(ls: LevelSets) -> dict:
    """Summary statistics of the level-size distribution.

    Returns the quantities reported in Tables I/III/IV: the level count
    and the min / max / median rows per level.
    """
    sizes = ls.level_sizes()
    return {
        "n_levels": int(ls.n_levels),
        "min": int(sizes.min()) if sizes.size else 0,
        "max": int(sizes.max()) if sizes.size else 0,
        "median": float(np.median(sizes)) if sizes.size else 0.0,
        "mean": float(sizes.mean()) if sizes.size else 0.0,
    }
