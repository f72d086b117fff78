"""Pattern-keyed symbolic cache: hits, invalidation, memoization."""

import numpy as np
import pytest

from repro.core.iluk import ilu0_factor
from repro.kernels import (
    SymbolicCache,
    cached_analysis,
    clear_default_cache,
    default_cache,
    frozen_pattern,
    matrix_fingerprint,
    pattern_fingerprint,
)
from repro.matrices import grid2d
from repro.sparse import CSRMatrix, from_dense

from helpers import on_pattern, random_csr


def _factor(n=30, seed=0):
    return ilu0_factor(random_csr(n, 0.15, seed=seed))


class TestFingerprint:
    def test_same_pattern_same_fingerprint(self):
        F = _factor()
        G = CSRMatrix(
            F.n_rows, F.n_cols, F.indptr.copy(), F.indices.copy(), F.data * 3.0
        )
        # values differ, structure identical -> same symbolic identity
        assert pattern_fingerprint(F) == pattern_fingerprint(G)

    def test_pattern_mutation_changes_fingerprint(self):
        F = _factor()
        fp0 = pattern_fingerprint(F)
        G = CSRMatrix(
            F.n_rows,
            F.n_cols,
            F.indptr.copy(),
            F.indices.copy(),
            F.data.copy(),
        )
        # drop the last entry of the last row
        G.indptr[-1] -= 1
        G.indices = G.indices[:-1]
        G.data = G.data[:-1]
        assert pattern_fingerprint(G) != fp0

    def test_shape_in_fingerprint(self):
        E1 = CSRMatrix(2, 2, [0, 0, 0], [], [])
        E2 = CSRMatrix(3, 3, [0, 0, 0, 0], [], [])
        assert pattern_fingerprint(E1) != pattern_fingerprint(E2)

    def test_matrix_fingerprint_distinguishes_values(self):
        F = _factor()
        G = CSRMatrix(
            F.n_rows, F.n_cols, F.indptr.copy(), F.indices.copy(), F.data * 3.0
        )
        # same stencil, different values: same symbolic identity but
        # distinct numeric identity (factor caches must not collide)
        assert pattern_fingerprint(F) == pattern_fingerprint(G)
        assert matrix_fingerprint(F) != matrix_fingerprint(G)

    def test_matrix_fingerprint_stable(self):
        F = _factor()
        assert matrix_fingerprint(F) == matrix_fingerprint(F)
        int(matrix_fingerprint(F), 16)  # hex, usable for shard routing


class TestFrozenPatternDigest:
    """A digest is remembered only for a pattern that nothing can write."""

    def _count_hashes(self, monkeypatch):
        import repro.kernels.cache as cache

        real, hashed = cache._hash_pattern, []

        def counted(M):
            hashed.append(M)
            return real(M)

        monkeypatch.setattr(cache, "_hash_pattern", counted)
        return hashed

    @staticmethod
    def _setup_both(M):
        from repro.core import JavelinILU
        from repro.resilience import ResilientFactor

        ilu = JavelinILU().setup(M)
        ilu.factor()
        return ilu, ResilientFactor().setup(M)

    @staticmethod
    def _move_an_entry(indices):
        # grid2d(8)'s row 0 is columns (0, 1, 8): moving 8 to 7 keeps it sorted
        assert list(indices[:3]) == [0, 1, 8]
        indices[2] = 7

    def _assert_edit_caught(self, M, edit):
        ilu, rf = self._setup_both(M)
        before = [pattern_fingerprint(M) for _ in range(2)]
        edit()
        assert pattern_fingerprint(M) != before[0] == before[1]
        with pytest.raises(ValueError, match="pattern"):
            ilu.refactor(M)
        with pytest.raises(ValueError, match="pattern"):
            rf.refactor(M)

    def test_an_in_place_edit_of_a_flag_only_read_only_pattern_is_caught(self, monkeypatch):
        A = grid2d(8)
        indptr, indices = A.indptr.copy(), A.indices.copy()
        for arr in (indptr, indices):
            arr.flags.writeable = False
        M = on_pattern(A, indptr, indices)
        hashed = self._count_hashes(monkeypatch)

        def edit():
            indices.flags.writeable = True
            self._move_an_entry(indices)
            indices.flags.writeable = False  # read-only again, by flag only

        self._assert_edit_caught(M, edit)
        # 3 digests in _assert_edit_caught and one in each refactor: all computed
        assert sum(m is M for m in hashed) >= 5

    def test_an_edit_under_a_read_only_view_is_caught(self):
        A = grid2d(8)
        base = A.indices.copy()
        view = base[:]
        view.flags.writeable = False
        M = on_pattern(A, frozen_pattern(A)[0], view)
        self._assert_edit_caught(M, lambda: self._move_an_entry(base))

    def test_an_edit_of_a_bytearray_under_a_read_only_array_is_caught(self):
        A = grid2d(8)
        buf = bytearray(A.indices.tobytes())
        indices = np.frombuffer(buf, dtype=np.int64)
        indices.flags.writeable = False
        M = on_pattern(A, frozen_pattern(A)[0], indices)
        self._assert_edit_caught(M, lambda: self._move_an_entry(np.frombuffer(buf, dtype=np.int64)))

    def test_a_frozen_pattern_cannot_be_made_writable(self):
        indptr, indices = frozen_pattern(grid2d(8))
        for arr in (indptr, indices, indices[3:10]):
            with pytest.raises(ValueError):
                arr.flags.writeable = True

    def test_the_remembered_digest_is_a_fresh_hash_of_a_copy(self, monkeypatch):
        A = grid2d(8)
        M = on_pattern(A, *frozen_pattern(A))
        hashed = self._count_hashes(monkeypatch)
        digests = [pattern_fingerprint(M) for _ in range(3)]
        assert len(hashed) == 1
        copy = on_pattern(A, M.indptr.copy(), M.indices.copy())
        assert digests == [pattern_fingerprint(copy)] * 3 == [pattern_fingerprint(A)] * 3
        # another matrix on the same two arrays reuses the digest ...
        assert pattern_fingerprint(on_pattern(A, M.indptr, M.indices)) == digests[0]
        assert len(hashed) == 3
        # ... unless its shape differs, which is part of the digest
        wider = CSRMatrix(A.n_rows, A.n_cols + 1, M.indptr, M.indices, A.data,
                          sort=False, check=False)
        assert pattern_fingerprint(wider) != digests[0]

    def test_an_in_place_dtype_change_is_hashed_again(self):
        A = grid2d(8)
        indptr, indices = frozen_pattern(A)
        M = on_pattern(A, indptr, indices)
        before = pattern_fingerprint(M)
        indices.dtype = np.int32  # the same bytes, read as twice as many entries
        assert pattern_fingerprint(M) != before

    def test_entries_die_with_their_arrays(self):
        import gc

        import repro.kernels.cache as cache

        gc.collect()  # earlier tests' garbage must not leave during the count
        n0 = len(cache._FROZEN_DIGESTS)
        A = grid2d(8)
        M = on_pattern(A, *frozen_pattern(A))
        key = (id(M.indptr), id(M.indices))
        pattern_fingerprint(M)
        assert key in cache._FROZEN_DIGESTS
        del M
        gc.collect()
        assert key not in cache._FROZEN_DIGESTS
        assert len(cache._FROZEN_DIGESTS) == n0


class TestCacheBehavior:
    def test_hit_returns_same_analysis_object(self):
        cache = SymbolicCache()
        F = _factor()
        a1 = cache.analysis(F)
        a2 = cache.analysis(F)
        assert a1 is a2
        assert cache.stats() == {
            "hits": 1,
            "misses": 1,
            "evictions": 0,
            "entries": 1,
            "max_entries": 32,
            "hit_rate": 0.5,
        }

    def test_hit_skips_recomputation(self):
        cache = SymbolicCache()
        F = _factor()
        a = cache.analysis(F)
        a.plan("lower"), a.plan("upper"), a.diag_pos()
        counts = dict(a.compute_counts)
        # every product built exactly once
        assert set(counts.values()) == {1}
        b = cache.analysis(F)
        b.plan("lower"), b.plan("upper"), b.diag_pos()
        assert b.compute_counts == counts  # nothing recomputed on the hit

    def test_value_change_still_hits(self):
        cache = SymbolicCache()
        F = _factor()
        cache.analysis(F)
        F.data *= 2.0  # numeric refactorization, same pattern
        assert F in cache
        assert cache.analysis(F).fingerprint == pattern_fingerprint(F)
        assert cache.hits == 1

    def test_pattern_mutation_misses(self):
        cache = SymbolicCache()
        F = _factor()
        cache.analysis(F)
        G = CSRMatrix(
            F.n_rows,
            F.n_cols,
            F.indptr.copy(),
            F.indices.copy(),
            F.data.copy(),
        )
        G.indptr[-1] -= 1
        G.indices = G.indices[:-1]
        G.data = G.data[:-1]
        assert G not in cache
        cache.analysis(G)
        assert cache.stats() == {
            "hits": 0,
            "misses": 2,
            "evictions": 0,
            "entries": 2,
            "max_entries": 32,
            "hit_rate": 0.0,
        }

    def test_source_mutation_cannot_corrupt_entry(self):
        """The analysis copies the pattern, so in-place edits of the
        source matrix don't change what an existing entry describes."""
        cache = SymbolicCache()
        F = _factor()
        a = cache.analysis(F)
        dp = a.diag_pos().copy()
        F.indices[0] = (F.indices[0] + 1) % F.n_cols  # vandalize the source
        assert np.array_equal(a.diag_pos(), dp)

    def test_lru_eviction(self):
        cache = SymbolicCache(max_entries=2)
        Fs = [_factor(seed=s) for s in (1, 2, 3)]
        for F in Fs:
            cache.analysis(F)
        assert len(cache) == 2
        assert Fs[0] not in cache  # oldest evicted
        assert Fs[2] in cache
        assert cache.stats()["evictions"] == 1

    def test_clear(self):
        cache = SymbolicCache()
        cache.analysis(_factor())
        cache.clear()
        assert len(cache) == 0
        # regression: hit_rate on a fresh/cleared cache is 0.0, never a
        # ZeroDivisionError, and the snapshot carries the eviction count
        assert cache.stats() == {
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "entries": 0,
            "max_entries": 32,
            "hit_rate": 0.0,
        }

    def test_stats_snapshot_is_consistent(self):
        cache = SymbolicCache()
        F = _factor()
        for _ in range(4):
            cache.analysis(F)
        s = cache.stats()
        assert s["hits"] + s["misses"] == 4
        assert s["hit_rate"] == pytest.approx(s["hits"] / 4)


class TestDefaultCache:
    def test_cached_analysis_routes_to_default(self):
        clear_default_cache()
        F = _factor(seed=9)
        a = cached_analysis(F)
        assert cached_analysis(F) is a
        assert default_cache().hits >= 1
        clear_default_cache()

    def test_diag_pos_message_matches_trisolve_contract(self):
        F = from_dense(np.array([[1.0, 2.0], [3.0, 4.0]]))
        a = cached_analysis(F)
        assert np.array_equal(a.diag_pos(), [0, 3])
        missing = CSRMatrix(2, 2, [0, 1, 2], [1, 0], [1.0, 1.0])
        with pytest.raises(ValueError, match="missing diagonal in factored row 0"):
            cached_analysis(missing).plan("upper")


class TestThreadSafety:
    """The runtime shares one process-wide cache across worker threads."""

    def test_concurrent_lookups_one_entry_consistent_stats(self):
        import threading

        cache = SymbolicCache()
        F = _factor(n=60, seed=11)
        results = []
        barrier = threading.Barrier(8)

        def hammer():
            barrier.wait()  # maximize the build race
            for _ in range(20):
                results.append(cache.analysis(F))

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # racing builds are allowed, but one entry wins and everyone
        # holds it afterwards
        assert len(cache) == 1
        winner = cache.analysis(F)
        assert all(r is winner for r in results[-8:])
        s = cache.stats()
        assert s["hits"] + s["misses"] == len(results) + 1
        assert s["misses"] >= 1

    def test_concurrent_distinct_patterns_and_clear(self):
        import threading

        cache = SymbolicCache(max_entries=64)
        mats = [_factor(n=25, seed=s) for s in range(6)]
        errors = []

        def worker(F):
            try:
                for _ in range(10):
                    a = cache.analysis(F)
                    a.diag_pos()
                    a.levels("lower")
            except Exception as e:  # pragma: no cover - failure path
                errors.append(e)

        threads = [threading.Thread(target=worker, args=(F,)) for F in mats]
        threads.append(threading.Thread(target=cache.clear))
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        # post-clear state is still coherent: re-lookups all land
        for F in mats:
            cache.analysis(F)
        assert all(F in cache for F in mats)

    def test_memoized_products_race_free(self):
        import threading

        a = cached_analysis(_factor(n=40, seed=12))
        outs = []
        barrier = threading.Barrier(6)

        def build():
            barrier.wait()
            outs.append(a.plan("lower"))

        threads = [threading.Thread(target=build) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # all callers observe the single memoized winner
        assert all(o is outs[0] for o in outs)
        clear_default_cache()
