"""Pattern-fingerprint feature extraction from cached symbolic products.

Everything the cost model conditions on is a pure function of the
sparsity pattern, and everything here is *already computed* by the
symbolic layer: level sets and superstep plans live in the
pattern-keyed :class:`~repro.kernels.cache.SymbolicAnalysis`.  Feature
extraction is therefore a read — it never re-analyzes a pattern the
system has already touched, which is what makes consulting the tuner
cheap enough to do per batch in the serving loop.

The feature vector holds the level count and level-width histogram
(thin levels ⇒ sync-bound), bandwidth and row density (locality), and
the superstep count at a reference thread count, which prices the DAG
partition's synchronization economy against the level-set default
(:func:`serve_scheduler`).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from ..kernels.cache import cached_analysis

__all__ = [
    "N_WIDTH_BUCKETS",
    "PLAN_THREADS",
    "PatternFeatures",
    "extract_features",
    "count_supersteps",
    "serve_scheduler",
]

#: log2-spaced level-width histogram buckets: bucket ``k`` counts
#: levels of width in ``[2^k, 2^(k+1))``; the last bucket is open-ended
N_WIDTH_BUCKETS = 12
#: thread count the superstep plans are counted at
PLAN_THREADS = 8


@dataclass(frozen=True)
class PatternFeatures:
    """One pattern's tuning-relevant fingerprint (both sweep directions).

    ``superstep_steps`` is evaluated at ``plan_threads`` — a structural
    count of the cached plans, recorded so a recommendation is
    reproducible from the features alone (the purity contract the
    property tests assert).
    """

    fingerprint: str
    n: int
    nnz: int
    n_levels: int  # lower + upper sweep levels combined
    n_levels_lower: int
    n_levels_upper: int
    critical_path: int  # rows on the longest dependency chain (lower sweep)
    max_width: int
    mean_width: float
    median_width: float
    width_hist: tuple  # fraction of levels per log2 width bucket
    bandwidth: int
    row_density: float
    superstep_steps: int
    plan_threads: int

    def as_vector(self):
        """Flat numeric tuple (histogram inlined) — hashing/property-test aid."""
        out = []
        for f in fields(self):
            v = getattr(self, f.name)
            if f.name == "fingerprint":
                continue
            if f.name == "width_hist":
                out.extend(float(x) for x in v)
            else:
                out.append(float(v))
        return tuple(out)

    @property
    def nnz_per_level(self):
        """Mean entries swept per level — the batched backend's amortization unit."""
        return self.nnz / max(1, self.n_levels_lower)


def _width_histogram(widths):
    hist = np.zeros(N_WIDTH_BUCKETS)
    if widths.size == 0:
        return tuple(hist)
    buckets = np.minimum(
        np.floor(np.log2(np.maximum(widths, 1))).astype(int), N_WIDTH_BUCKETS - 1
    )
    for b in buckets:
        hist[b] += 1.0
    return tuple(hist / widths.size)


def count_supersteps(analysis, n_threads=PLAN_THREADS):
    """Supersteps of one full apply (lower + upper sweep) at ``n_threads``."""
    return sum(
        int(analysis.superstep_plan(part, n_threads=n_threads).n_steps)
        for part in ("lower", "upper")
    )


def serve_scheduler(superstep_steps, n_levels_lower):
    """Serving-loop scheduler override: ``"superstep"`` when the DAG
    partition pays fewer syncs than the level-set charge (two per lower
    level), else ``None`` (keep the p2p default).

    The structural rule of superstep scheduling (Böhnlein et al.,
    arXiv 2503.05408), restricted to superstep deliberately:
    it is the one exact mode whose serve-side sync economy is a pure
    count of the cached plan (``n_steps``), so the override is
    reproducible from two structural counts and provably changes only
    the virtual-time charge, never the applied numerics.
    """
    if superstep_steps < 2 * n_levels_lower:
        return "superstep"
    return None


def extract_features(M, *, n_threads=PLAN_THREADS) -> PatternFeatures:
    """Feature vector of ``M``'s pattern, read off the symbolic cache.

    Deterministic: same pattern (same fingerprint) ⇒ same features,
    across processes — every input is a frozen symbolic product or a
    direct function of ``(indptr, indices)``.
    """
    an = cached_analysis(M)
    lv_lo = an.levels("lower")
    lv_up = an.levels("upper")
    widths = np.diff(lv_lo.level_ptr)

    row_of_entry = np.repeat(np.arange(M.n_rows), np.diff(M.indptr))
    bandwidth = (
        int(np.max(np.abs(np.asarray(M.indices) - row_of_entry)))
        if row_of_entry.size
        else 0
    )
    return PatternFeatures(
        fingerprint=an.fingerprint,
        n=int(M.n_rows),
        nnz=int(M.nnz),
        n_levels=int(lv_lo.n_levels + lv_up.n_levels),
        n_levels_lower=int(lv_lo.n_levels),
        n_levels_upper=int(lv_up.n_levels),
        critical_path=int(lv_lo.n_levels),
        max_width=int(widths.max()) if widths.size else 0,
        mean_width=float(widths.mean()) if widths.size else 0.0,
        median_width=float(np.median(widths)) if widths.size else 0.0,
        width_hist=_width_histogram(widths),
        bandwidth=bandwidth,
        row_density=float(M.nnz / max(1, M.n_rows)),
        superstep_steps=count_supersteps(an, n_threads),
        plan_threads=int(n_threads),
    )
