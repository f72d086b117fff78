"""FactorCache/FactorEntry: naming determinism, demotion flag, revalue."""

import numpy as np
import pytest

from repro.core import JavelinILU
from repro.kernels.cache import matrix_fingerprint
from repro.matrices import grid2d
from repro.resilience import ResilientFactor
from repro.serve import FactorCache, FactorEntry, live_factor_caches
from repro.serve.factor_cache import _reset_name_counter


def _entry(fp="fp", factor=None, **kw):
    kw.setdefault("apply_multi", None)
    kw.setdefault("variant", "primary")
    kw.setdefault("n_levels", 3)
    kw.setdefault("nnz", 10)
    return FactorEntry(fingerprint=fp, factor=factor, **kw)


class TestDeterministicNames:
    def test_default_names_are_monotonic_counter_not_id(self):
        # regression: names embedded id(self), so ordering of
        # live_factor_caches() — and the obs metric names derived from
        # it — changed between otherwise identical runs
        _reset_name_counter()
        names = [FactorCache(2).name for _ in range(3)]
        assert names == ["factor_cache-0", "factor_cache-1", "factor_cache-2"]

    def test_replay_produces_identical_names(self):
        def one_run():
            _reset_name_counter()
            caches = [FactorCache(2) for _ in range(4)]
            live = [c.name for c in live_factor_caches() if c in caches]
            return [c.name for c in caches], live

        assert one_run() == one_run()

    def test_explicit_name_still_wins(self):
        assert FactorCache(2, name="shard0").name == "shard0"


class TestRefreshApplies:
    def _resetup_factor(self):
        # drive a real mid-solve demotion: resetup() advances the chain
        rf = ResilientFactor().setup(grid2d(6))
        rf.resetup()
        assert rf.report.resetups == 1
        return rf

    def test_refresh_applies_sets_demoted_after_resetup(self):
        # regression: refresh_applies updated variant/resetups but left
        # demoted False, so stats lied about a mid-solve demotion
        rf = self._resetup_factor()
        entry = _entry(factor=rf, demoted=False)
        entry.refresh_applies()
        assert entry.resetups == 1
        assert entry.demoted is True
        assert entry.variant == rf.report.final_variant

    def test_refresh_applies_without_resetup_keeps_flag(self):
        rf = ResilientFactor().setup(grid2d(6))
        entry = _entry(factor=rf, demoted=False)
        entry.refresh_applies()
        assert entry.demoted is False


class TestRevalue:
    def test_revalue_refreshes_values_in_place(self):
        A0, A1 = grid2d(8), grid2d(8, convection=0.5)
        rf = ResilientFactor().setup(A0)
        entry = _entry(fp=matrix_fingerprint(A0), factor=rf)
        new_fp = matrix_fingerprint(A1)
        entry.revalue(A1, new_fp)
        assert entry.fingerprint == new_fp
        assert entry.refactors == 1
        assert entry.stale_steps == 0
        # the refreshed factor matches a from-scratch factor of A1
        fresh = ResilientFactor().setup(A1)
        x = np.linspace(0.0, 1.0, A1.n_rows)
        assert np.array_equal(entry.factor.build_solver()(x), fresh.build_solver()(x))

    def test_revalue_builds_one_solver(self, monkeypatch):
        """The chain's validated ILU apply is the entry's multi-RHS apply."""
        A0, A1 = grid2d(8), grid2d(8, convection=0.5)
        entry = _entry(factor=ResilientFactor().setup(A0))
        builds = []
        real = JavelinILU.build_solver

        def counting(self):
            builds.append(self)
            return real(self)

        monkeypatch.setattr(JavelinILU, "build_solver", counting)
        monkeypatch.setattr(JavelinILU, "build_multi_solver", counting)
        entry.revalue(A1, matrix_fingerprint(A1))
        assert len(builds) == 1
        assert entry.apply_multi is entry.factor.build_solver()
        B = np.random.default_rng(0).standard_normal((A1.n_rows, 3))
        Z = entry.apply_multi(B)
        for j in range(3):
            assert np.array_equal(Z[:, j], entry.factor.solve(B[:, j]))

    def test_revalue_rejects_pattern_mismatch(self):
        rf = ResilientFactor().setup(grid2d(8))
        entry = _entry(factor=rf)
        with pytest.raises(ValueError, match="pattern"):
            entry.revalue(grid2d(9), "whatever")

    def test_cache_rekey_moves_entry(self):
        cache = FactorCache(4, name="rekey-test")
        entry = _entry(fp="old")
        cache.put(entry)
        assert cache.rekey("old", "new") is entry
        assert "new" in cache and "old" not in cache
        assert cache.rekey("missing", "x") is None
