"""Even-Rows and Segmented-Rows: the orders that keep the bits, and simulated behaviour."""

import numpy as np
import pytest

from repro.core import JavelinILU, JavelinOptions, ScheduleOptions
from repro.core.iluk import _scatter_values, factor_row, ilu_factor_sequential
from repro.core.lower_er import EvenRows, simulate_lower_er
from repro.core.lower_sr import SegmentedRows, simulate_lower_sr
from repro.core.symbolic import row_factor_costs_split
from repro.kernels import cached_analysis
from repro.machine import SimMachine, uniform_machine

from helpers import random_csr


def staged_setup(seed=0, n=50, density=0.1, alpha=8):
    ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(min_rows_per_level=alpha)))
    ilu.setup(random_csr(n, density, seed=seed))
    return ilu


class TestEvenRowsBlocks:
    def test_blocks_cover_lower_rows(self):
        er = EvenRows(m=10, n=25, n_threads=4)
        rows = []
        for t, lo, hi in er.blocks():
            rows.extend(range(lo, hi))
        assert rows == list(range(10, 25))

    def test_blocks_balanced(self):
        er = EvenRows(m=0, n=10, n_threads=3)
        sizes = [hi - lo for _, lo, hi in er.blocks()]
        assert max(sizes) - min(sizes) <= 1

    def test_more_threads_than_rows(self):
        er = EvenRows(m=0, n=2, n_threads=5)
        sizes = [hi - lo for _, lo, hi in er.blocks()]
        assert sum(sizes) == 2
        assert len(sizes) == 5  # trailing threads get empty blocks


def assert_sr_lists_row_columns_ascending(ilu, tile_size):
    """SR's tiles, over ascending levels, give each lower row its columns ``< m`` in order.

    That per-row order is the reference's elimination order, which is
    why the SR execution order leaves the factor's bits unchanged.
    """
    S, m = ilu.S_perm, ilu.m
    sr = SegmentedRows.build(S, m, ilu.level_ptr, tile_size=tile_size)
    listed = {r: [] for r in range(m, S.n_rows)}
    for lvl in range(sr.n_levels):
        for _, ents in sr.tiles_of(lvl):
            for kk, r, c in ents:
                assert S.indptr[r] <= kk < S.indptr[r + 1] and S.indices[kk] == c
                listed[int(r)].append(int(c))
    for r, got in listed.items():
        cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
        assert got == cols[cols < m].tolist()


class TestNumericParity:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_er_matches_reference(self, seed):
        # ER's phases in their order: every lower row's FACTOR_L, then
        # the corner, each through factor_row's column window
        ilu = staged_setup(seed=seed)
        F = _scatter_values(ilu.S_perm, ilu.A_perm)
        dp = cached_analysis(F).diag_pos()
        n, m = F.n_rows, ilu.m
        assert 0 < m < n
        for r in range(m):
            factor_row(F, r, dp)
        for r in range(m, n):
            factor_row(F, r, dp, window=(0, m))
        for r in range(m, n):
            factor_row(F, r, dp, window=(m, r))
        Fref = ilu_factor_sequential(ilu.A_perm, ilu.S_perm)
        assert np.array_equal(F.data, Fref.data)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sr_matches_reference(self, seed):
        assert_sr_lists_row_columns_ascending(staged_setup(seed=seed), tile_size=5)

    @pytest.mark.parametrize("tile_size", [1, 3, 64])
    def test_sr_tile_size_does_not_change_values(self, tile_size):
        assert_sr_lists_row_columns_ascending(staged_setup(seed=3), tile_size)


class TestSegmentedRowsStructure:
    def test_entries_cover_lower_left_block(self):
        ilu = staged_setup(seed=4)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
        S, m = ilu.S_perm, ilu.m
        expect = 0
        for r in range(m, S.n_rows):
            cols = S.indices[S.indptr[r] : S.indptr[r + 1]]
            expect += int(np.count_nonzero(cols < m))
        assert sum(e.shape[0] for e in sr.sub_entries) == expect

    def test_entries_sorted_by_column_within_level(self):
        ilu = staged_setup(seed=5)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
        for ents in sr.sub_entries:
            if ents.shape[0] > 1:
                assert np.all(np.diff(ents[:, 2]) >= 0)

    def test_columns_assigned_to_own_level(self):
        ilu = staged_setup(seed=6)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
        for lvl, ents in enumerate(sr.sub_entries):
            for _, _, c in ents:
                assert ilu.level_ptr[lvl] <= c < ilu.level_ptr[lvl + 1]

    def test_level_of_col_corner(self):
        ilu = staged_setup(seed=7)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr)
        assert sr.level_of_col(ilu.m) == sr.n_levels

    def test_tiles_chunk_correctly(self):
        ilu = staged_setup(seed=8)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr, tile_size=4)
        for lvl in range(sr.n_levels):
            total = sum(e.shape[0] for _, e in sr.tiles_of(lvl))
            assert total == sr.sub_entries[lvl].shape[0]
            for _, e in sr.tiles_of(lvl):
                assert 1 <= e.shape[0] <= 4


class TestSimulatedLower:
    def _machine(self, p):
        return SimMachine(uniform_machine(n_cores=max(p, 2)), p)

    def test_er_makespan_after_start(self):
        ilu = staged_setup(seed=9)
        split = row_factor_costs_split(ilu.S_perm, ilu.m)
        mach = self._machine(4)
        mk, trace = simulate_lower_er(ilu.S_perm, ilu.m, mach, split, start_time=1.0)
        assert mk >= 1.0
        assert all(iv.start >= 1.0 for iv in trace.intervals)

    def test_er_parallel_blocks_beat_serial_blocks(self):
        """With bandwidth and barriers out of the picture, more threads
        can only shrink the block phase (corner stays serial)."""
        ilu = staged_setup(seed=10, alpha=16)
        split = row_factor_costs_split(ilu.S_perm, ilu.m)

        def mach(p):
            return SimMachine(
                uniform_machine(
                    n_cores=max(p, 2),
                    socket_bw=1e15,
                    single_thread_bw=1e15,
                    barrier_base=0.0,
                    barrier_per_log2p=0.0,
                ),
                p,
            )

        mk1, _ = simulate_lower_er(ilu.S_perm, ilu.m, mach(1), split)
        mk4, _ = simulate_lower_er(ilu.S_perm, ilu.m, mach(4), split)
        assert mk4 <= mk1 + 1e-12

    def test_er_parallel_corner_option(self):
        ilu = staged_setup(seed=11, alpha=16)
        split = row_factor_costs_split(ilu.S_perm, ilu.m)
        mach = self._machine(4)
        mk_ser, _ = simulate_lower_er(ilu.S_perm, ilu.m, mach, split, parallel_corner=False)
        mk_par, _ = simulate_lower_er(ilu.S_perm, ilu.m, mach, split, parallel_corner=True)
        assert mk_par > 0 and mk_ser > 0  # both well-defined

    def test_sr_simulation_runs_and_shifts(self):
        ilu = staged_setup(seed=12)
        sr = SegmentedRows.build(ilu.S_perm, ilu.m, ilu.level_ptr, tile_size=8)
        split = row_factor_costs_split(ilu.S_perm, ilu.m)
        mach = self._machine(4)
        mk, trace = simulate_lower_sr(ilu.S_perm, sr, mach, split[1], start_time=2.0)
        assert mk >= 2.0
        assert all(iv.start >= 2.0 for iv in trace.intervals)

    def test_sr_no_lower_rows_trivial(self):
        ilu = JavelinILU(JavelinOptions(schedule=ScheduleOptions(lower_method="none")))
        ilu.setup(random_csr(30, 0.15, seed=13))
        sr = SegmentedRows.build(ilu.S_perm, ilu.S_perm.n_rows, ilu.level_ptr)
        assert sum(e.shape[0] for e in sr.sub_entries) == 0

    def test_cold_er_simulation_expands_the_slots_once(self, monkeypatch):
        """Both cost arrays of a cold ER run come from one split at m."""
        import repro.core.lower_sr as lower_sr
        import repro.core.symbolic as symbolic

        calls = []

        def counted(expand):
            def run(*args, **kwargs):
                calls.append(expand)
                return expand(*args, **kwargs)
            return run

        for module in (symbolic, lower_sr):
            monkeypatch.setattr(module, "slot_updates", counted(module.slot_updates))
        ilu = staged_setup(seed=14, n=60, alpha=8)
        assert ilu.resolved_lower_method(4) == "er" and ilu.m < ilu.S_perm.n_rows
        calls.clear()
        report = ilu.simulate_factor(self._machine(4))
        assert report.method == "er" and len(calls) == 1
