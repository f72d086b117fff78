"""Pattern-keyed symbolic cache.

An ILU-preconditioned Krylov run re-analyzes the same sparsity pattern
over and over: every factor/solve cycle needs diagonal positions, level
sets, level-ordered permutations, batched sweep plans and row-cost
arrays — all functions of ``(indptr, indices)`` alone, never of the
values.  This module
fingerprints the pattern and memoizes one :class:`SymbolicAnalysis` per
fingerprint, so repeated cycles (GMRES restarts, CG
re-preconditioning, parameter sweeps over ``τ``) pay the symbolic cost
once.

The fingerprint hashes the structure bytes, so any pattern mutation —
a different fill level, a pruned entry, a permutation — produces a new
key and therefore a fresh analysis; stale reuse is structurally
impossible.  Cached analyses copy the pattern arrays, so later in-place
edits of the source matrix cannot corrupt an existing entry.

A pattern on ``bytes`` (:func:`frozen_pattern`) cannot be written
through any view, so :func:`pattern_fingerprint` hashes it once and
remembers the digest while its arrays live; every other pattern is
hashed on each call, so an in-place edit is always seen.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict

import numpy as np

from ..obs import spans as _spans
from ..sparse.csr import CSRMatrix
from .plans import (
    backward_level_sets,
    build_trisolve_plan,
    diag_positions,
    forward_level_sets,
)

__all__ = [
    "pattern_fingerprint",
    "matrix_fingerprint",
    "frozen_pattern",
    "require_pattern",
    "SymbolicAnalysis",
    "SymbolicCache",
    "default_cache",
    "cached_analysis",
    "clear_default_cache",
    "configure_default_cache",
    "set_validation_hook",
    "freeze_product",
]

_VALIDATION_HOOK = None  # debug hook: fn(analysis) on every cache lookup


def set_validation_hook(fn):
    """Install (or clear, with ``None``) the lookup-time debug validator.

    When set, every :meth:`SymbolicCache.analysis` result is passed to
    ``fn(analysis)`` before being returned — the hook
    :func:`repro.verify.enable_debug_validation` uses to re-validate
    cached entries (structure + frozen arrays) on each lookup.
    """
    global _VALIDATION_HOOK
    _VALIDATION_HOOK = fn


def freeze_product(obj):
    """Mark a symbolic product's arrays read-only, recursively.

    Cached products are shared across factor/solve cycles and threads;
    freezing (``ndarray.flags.writeable = False``) turns an accidental
    in-place mutation into an immediate ``ValueError`` at the write
    site instead of silent corruption of every other consumer.  Handles
    bare arrays, tuples of products, and the dataclass products
    (:class:`~repro.ordering.levelsets.LevelSets`,
    :class:`~repro.kernels.plans.TriSolvePlan`, the ``repro.sched``
    plans), whose every array attribute is frozen.
    """
    if isinstance(obj, np.ndarray):
        obj.flags.writeable = False
        return obj
    if isinstance(obj, tuple):
        return tuple(freeze_product(x) for x in obj)
    for arr in getattr(obj, "__dict__", {}).values():
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return obj


def frozen_pattern(M):
    """``M``'s ``(indptr, indices)`` as int64 arrays on ``bytes``, which no view can write."""
    return tuple(
        np.frombuffer(np.asarray(a, dtype=np.int64).tobytes(), dtype=np.int64)
        for a in (M.indptr, M.indices)
    )


def _on_bytes(a):
    while isinstance(a, np.ndarray):
        a = a.base
    return isinstance(a, bytes)


def _hash_pattern(M) -> str:
    h = hashlib.blake2b(digest_size=16)
    h.update(np.asarray([M.n_rows, M.n_cols], dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(M.indptr, dtype=np.int64).tobytes())
    h.update(np.ascontiguousarray(M.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


# ids of a bytes-backed (indptr, indices) -> (stamp, digest, weakrefs that drop the entry)
_FROZEN_DIGESTS: dict = {}


def pattern_fingerprint(M) -> str:
    """Hex digest of ``(shape, indptr, indices)`` — the symbolic identity.

    Remembered for a pattern on ``bytes``, checked against what its arrays
    can still change in place: dtype, shape and strides.
    """
    arrays = (M.indptr, M.indices)
    if not all(map(_on_bytes, arrays)):
        return _hash_pattern(M)
    key = tuple(map(id, arrays))
    stamp = (M.n_rows, M.n_cols, *[(a.dtype, a.shape, a.strides) for a in arrays])
    hit = _FROZEN_DIGESTS.get(key)
    if hit is None or hit[0] != stamp:

        def forget(_ref):
            _FROZEN_DIGESTS.pop(key, None)

        hit = (stamp, _hash_pattern(M), [weakref.ref(a, forget) for a in arrays])
        _FROZEN_DIGESTS[key] = hit
    return hit[1]


def require_pattern(A, setup_key):
    """Raise ``ValueError`` unless ``A``'s pattern digest is ``setup_key``."""
    key = pattern_fingerprint(A)
    if key != setup_key:
        raise ValueError(
            f"refactor() requires the setup sparsity pattern (got {key[:12]}, "
            f"setup was {setup_key[:12]}); call setup() for a new pattern"
        )


def matrix_fingerprint(M) -> str:
    """Hex digest of pattern *and* values — the numeric identity.

    Two matrices on the same stencil (e.g. a diffusion and a convection
    problem on one grid) share a :func:`pattern_fingerprint` but must
    never share a *factor*; use this digest to key caches whose entries
    depend on the values, not just the structure.
    """
    h = hashlib.blake2b(digest_size=16)
    h.update(pattern_fingerprint(M).encode())
    h.update(np.ascontiguousarray(M.data, dtype=np.float64).tobytes())
    return h.hexdigest()


class SymbolicAnalysis:
    """Memoized symbolic products of one sparsity pattern.

    Every accessor computes on first use and returns the cached array
    afterwards; ``compute_counts`` records how many times each product
    was actually built (the cache tests assert a hit never rebuilds).
    """

    def __init__(self, M, fingerprint=None):
        self.fingerprint = fingerprint or pattern_fingerprint(M)
        self.n_rows = M.n_rows
        self.n_cols = M.n_cols
        # own frozen copies: in-place edits of the source matrix must not
        # corrupt an entry already keyed by the old fingerprint
        ones = freeze_product(np.ones(int(M.indptr[-1])))
        self._pattern = CSRMatrix(M.n_rows, M.n_cols, *frozen_pattern(M), ones,
                                  sort=False, check=False)
        self._memo = {}
        self.compute_counts = {}
        self._lock = threading.Lock()  # verify: ok[JAV002] shared with the threaded runtime

    @property
    def nnz(self):
        return self._pattern.nnz

    def _get(self, key, builder):
        # reentrant use (plan() builds via levels()+diag_pos()) means the
        # lock cannot be held across builder(), only around the memo dict
        with self._lock:
            hit = self._memo.get(key)
        if hit is not None:
            return hit
        built = freeze_product(builder())
        with self._lock:
            if key not in self._memo:
                self._memo[key] = built
                self.compute_counts[key] = self.compute_counts.get(key, 0) + 1
            return self._memo[key]

    def diag_pos(self):
        """Storage index of every diagonal entry (whole-matrix searchsorted)."""
        return self._get("diag_pos", lambda: diag_positions(self._pattern))

    def levels(self, part):
        """Level sets of the forward ('lower') or backward ('upper') sweep."""
        if part == "lower":
            return self._get("levels_lower", lambda: forward_level_sets(self._pattern))
        if part == "upper":
            return self._get("levels_upper", lambda: backward_level_sets(self._pattern))
        raise ValueError("part must be 'lower' or 'upper'")

    def level_order(self, part):
        """The level-ordered permutation (rows grouped by level)."""
        return self.levels(part).rows

    def plan(self, part):
        """The batched sweep plan for ``part`` (reuses levels + diag_pos)."""
        key = f"plan_{part}"
        return self._get(
            key,
            lambda: build_trisolve_plan(
                self._pattern,
                part,
                levels=self.levels(part),
                diag_idx=self.diag_pos() if part == "upper" else None,
            ),
        )

    def superstep_plan(self, part, *, n_threads, opts=None):
        """The DAG-partition superstep plan (reuses the level sets).

        Keyed beside the level/plan products: same pattern, distinct
        plans per ``(part, n_threads, superstep knobs)``.
        """
        from ..sched.options import SchedOptions
        from ..sched.superstep import build_superstep_plan

        if opts is None:
            opts = SchedOptions()
        key = ("superstep", part, int(n_threads), opts.superstep_key())
        return self._get(
            key,
            lambda: build_superstep_plan(
                self._pattern,
                part,
                n_threads=n_threads,
                opts=opts,
                levels=self.levels(part),
            ),
        )

    def elastic_schedule(self, part, *, staleness):
        """The stale-synchronous schedule for ``part`` (cached per budget)."""
        from ..sched.elastic import build_elastic_schedule

        key = ("elastic", part, int(staleness))
        return self._get(
            key,
            lambda: build_elastic_schedule(
                self._pattern,
                part,
                staleness=staleness,
                levels=self.levels(part),
                diag_idx=self.diag_pos() if part == "upper" else None,
            ),
        )

    def solve_costs(self, part):
        """Per-row (flops, touched) of one triangular sweep (cost model)."""
        from ..core.symbolic import row_solve_costs

        return self._get(f"solve_costs_{part}", lambda: row_solve_costs(self._pattern, part=part))

    def factor_costs(self):
        """Per-row (flops, touched) of the up-looking factorization."""
        from ..core.symbolic import row_factor_costs

        return self._get("factor_costs", lambda: row_factor_costs(self._pattern))


class SymbolicCache:
    """LRU cache of :class:`SymbolicAnalysis`, keyed by pattern fingerprint.

    Thread-safe: the threaded runtime (`repro.runtime`) shares one
    process-wide instance across worker threads, so lookup, insertion,
    eviction and the hit/miss counters are serialized under a lock.  The
    analysis itself is built *outside* the lock (it can be expensive)
    and inserted with a re-check, so two racing threads may both build
    but the cache stays consistent and one entry wins.
    """

    def __init__(self, max_entries=32):
        if int(max_entries) < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: OrderedDict[str, SymbolicAnalysis] = OrderedDict()
        self._lock = threading.Lock()  # verify: ok[JAV002] shared with the threaded runtime
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def configure(self, *, max_entries):
        """Resize the cache at runtime (``REPRO_SYMBOLIC_CACHE_SIZE``).

        Shrinking below the current population evicts
        least-recently-used entries immediately, counted as evictions
        like any capacity eviction.  Returns the evicted fingerprints.
        """
        if int(max_entries) < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        evicted = []
        with self._lock:
            self.max_entries = int(max_entries)
            while len(self._entries) > self.max_entries:
                old_key, _ = self._entries.popitem(last=False)
                self.evictions += 1
                evicted.append(old_key)
        for old_key in evicted:
            _spans.instant("cache.evict", cat="cache", key=old_key[:12])
        return evicted

    def analysis(self, M) -> SymbolicAnalysis:
        """The (possibly cached) symbolic analysis of ``M``'s pattern."""
        key = pattern_fingerprint(M)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.hits += 1
                self._entries.move_to_end(key)
            else:
                self.misses += 1
        # obs events fire outside the lock: the recorder takes its own
        _spans.instant(
            "cache.hit" if entry is not None else "cache.miss",
            cat="cache", key=key[:12], n=int(M.n_rows),
        )
        if entry is None:
            entry = SymbolicAnalysis(M, fingerprint=key)
            evicted = []
            with self._lock:
                entry = self._entries.setdefault(key, entry)
                self._entries.move_to_end(key)
                while len(self._entries) > self.max_entries:
                    old_key, _ = self._entries.popitem(last=False)
                    self.evictions += 1
                    evicted.append(old_key)
            for old_key in evicted:
                _spans.instant("cache.evict", cat="cache", key=old_key[:12])
        if _VALIDATION_HOOK is not None:
            _VALIDATION_HOOK(entry)
        return entry

    def __contains__(self, M):
        with self._lock:
            return pattern_fingerprint(M) in self._entries

    def __len__(self):
        with self._lock:
            return len(self._entries)

    def stats(self):
        """Locked snapshot of the counters — the only supported read.

        The counters are mutated under the cache lock; reading the bare
        attributes from another thread can observe a torn pair (hits
        from before a lookup, misses from after).  The snapshot is
        internally consistent and adds ``hit_rate`` (0.0 when no
        lookups have happened yet, never a ZeroDivisionError).
        """
        with self._lock:
            hits, misses = self.hits, self.misses
            evictions, entries = self.evictions, len(self._entries)
            max_entries = self.max_entries
        lookups = hits + misses
        return {
            "hits": hits,
            "misses": misses,
            "evictions": evictions,
            "entries": entries,
            "max_entries": max_entries,
            "hit_rate": (hits / lookups) if lookups else 0.0,
        }

    def clear(self):
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


_DEFAULT_CACHE = SymbolicCache()


def default_cache() -> SymbolicCache:
    """The process-wide cache the high-level APIs route through."""
    return _DEFAULT_CACHE


def cached_analysis(M) -> SymbolicAnalysis:
    """Shorthand: analysis of ``M`` from the default cache."""
    return _DEFAULT_CACHE.analysis(M)


def clear_default_cache():
    _DEFAULT_CACHE.clear()


def configure_default_cache(*, max_entries):
    """Resize the process-wide cache (see :meth:`SymbolicCache.configure`).

    The CLI calls this when ``REPRO_SYMBOLIC_CACHE_SIZE`` is set;
    library users may call it directly at startup.
    """
    return _DEFAULT_CACHE.configure(max_entries=max_entries)
