"""Pattern-keyed LRU of ResilientFactor-built preconditioners.

Where the symbolic cache (:mod:`repro.kernels.cache`) memoizes
*structure* — level sets, sweep plans — this cache holds the expensive
part a serving system actually amortizes: the factored preconditioner
itself, built once per pattern by the breakdown-safe
:class:`~repro.resilience.ResilientFactor` chain and reused for every
subsequent request that hits the same fingerprint.  A warm hit turns a
request into pure solve work; a cold miss pays the factorization under
the request's deadline budget (the shard may demote the factorization
tier to fit — see :mod:`repro.serve.workers`).

Each worker shard owns a private instance: shard affinity routes a
pattern to one shard, so sharding the cache costs no duplicate entries
while keeping the deterministic core free of shared mutable state (and
of locks — JAV002).  ``stats()`` mirrors the symbolic cache's snapshot
shape so :func:`repro.obs.record_cache_metrics` works on either.
"""

from __future__ import annotations

import itertools
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

__all__ = ["FactorEntry", "FactorCache", "live_factor_caches"]

#: process-local monotonic source for default cache names.  ``id(self)``
#: would be nondeterministic across runs (allocator-dependent), which
#: broke both ``live_factor_caches()`` ordering and the obs metric
#: names derived from it.
_NAME_COUNTER = itertools.count()


def _reset_name_counter():
    """Restart default naming at 0 — test isolation only."""
    global _NAME_COUNTER
    _NAME_COUNTER = itertools.count()

#: every FactorCache registers itself here (weakly), so the obs layer
#: can aggregate hit/miss/eviction counts across all live caches
#: without the serving layers having to thread a registry through
_LIVE_CACHES: weakref.WeakSet = weakref.WeakSet()


def live_factor_caches():
    """All live :class:`FactorCache` instances, stable order by name.

    The observability collector
    (:func:`repro.obs.record_factor_cache_metrics`) iterates this to
    report factor-cache counts next to the symbolic cache's — sorted so
    the metric names a snapshot produces are deterministic.
    """
    return sorted(_LIVE_CACHES, key=lambda c: c.name)


@dataclass(eq=False)
class FactorEntry:
    """One cached preconditioner and what it cost to build.

    ``apply_multi`` is the current multi-RHS apply (rebuilt on a revalue
    or a mid-solve demotion); ``variant`` is the resilience chain's
    winner; ``demoted`` records that the factor tier was lowered to fit
    a deadline budget; ``n_levels``/``nnz`` feed the virtual cost model.
    """

    fingerprint: str
    factor: object
    apply_multi: object
    variant: str
    n_levels: int
    nnz: int
    build_cost: float = 0.0
    demoted: bool = False
    resetups: int = 0
    #: per-scheduler sync-point counts, lazily priced by the shards
    sync_points: dict = field(default_factory=dict)
    #: iteration count observed while the factor was fresh (staleness baseline)
    base_iters: float = 0.0
    #: mean iterations / convergence of the most recent solve — the
    #: degradation signal :class:`repro.serve.staleness.StalenessPolicy` reads
    last_iters: float = 0.0
    last_converged: bool = True
    #: batches served against values newer than the factor ("stale" policy)
    stale_steps: int = 0
    #: value-only refactors applied in place
    refactors: int = 0

    def revalue(self, A_new, new_fingerprint):
        """Value-only refresh: same pattern, new values, factor in place.

        Runs the resilient chain's :meth:`refactor` (numeric phase only,
        symbolic products reused) and rebuilds the apply.  The caller
        guarantees ``A_new`` shares this entry's pattern; the factor
        itself compares ``A_new``'s pattern digest with its setup digest
        and raises ``ValueError`` on a mismatch, so a fingerprint
        collision cannot silently produce a wrong preconditioner.
        """
        self.factor.refactor(A_new)
        self.refresh_applies()
        self.fingerprint = new_fingerprint
        self.stale_steps = 0
        self.refactors += 1

    def refresh_applies(self):
        """Rebuild the apply after the factor's chain advanced."""
        self.apply_multi = self.factor.build_multi_solver()
        self.variant = self.factor.report.final_variant
        self.resetups = self.factor.report.resetups
        if self.resetups > 0:
            # a mid-solve resetup IS a demotion down the chain — stats
            # and bench output must say so, same as a budget demotion
            self.demoted = True


class FactorCache:
    """LRU of :class:`FactorEntry`, keyed by pattern fingerprint."""

    def __init__(self, max_entries=8, *, name=None):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = int(max_entries)
        self.name = str(name) if name is not None else f"factor_cache-{next(_NAME_COUNTER)}"
        self._entries: OrderedDict[str, FactorEntry] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        _LIVE_CACHES.add(self)

    def get(self, fingerprint):
        """The cached entry (refreshing recency), or None on a miss."""
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self.hits += 1
        self._entries.move_to_end(fingerprint)
        return entry

    def put(self, entry: FactorEntry):
        """Insert ``entry``, evicting least-recently-used past capacity."""
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        evicted = []
        while len(self._entries) > self.max_entries:
            _, old = self._entries.popitem(last=False)
            self.evictions += 1
            evicted.append(old)
        return evicted

    def rekey(self, old_fingerprint, new_fingerprint):
        """Move an entry to a new fingerprint key (after a revalue).

        Preserves recency order; the entry's own ``fingerprint`` field
        is the revalue's job, this only fixes the index.  Returns the
        entry, or None if ``old_fingerprint`` is absent.
        """
        if old_fingerprint not in self._entries:
            return None
        entry = self._entries.pop(old_fingerprint)
        self._entries[new_fingerprint] = entry
        return entry

    def __contains__(self, fingerprint):
        return fingerprint in self._entries

    def __len__(self):
        return len(self._entries)

    def stats(self):
        """Snapshot in the SymbolicCache shape (plus ``max_entries``)."""
        lookups = self.hits + self.misses
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }

    def clear(self):
        self._entries.clear()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
