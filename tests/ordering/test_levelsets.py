import numpy as np
import pytest

from repro.matrices.generators import grid2d
from repro.kernels import forward_level_sets
from repro.ordering import level_schedule, level_set_stats
from repro.sparse import from_dense, lower_pattern, symmetrize_pattern
from repro.verify.invariants import InvariantViolation, validate_levels

from helpers import random_csr


class TestLevelSetsLower:
    def test_diagonal_matrix_single_level(self):
        ls = forward_level_sets(from_dense(np.eye(5)))
        assert ls.n_levels == 1
        assert np.array_equal(ls.level_rows(0), np.arange(5))

    def test_bidiagonal_chain_full_serial(self):
        n = 6
        D = np.eye(n)
        for i in range(1, n):
            D[i, i - 1] = 1.0
        ls = forward_level_sets(from_dense(D))
        assert ls.n_levels == n
        assert np.array_equal(ls.level_of, np.arange(n))

    def test_level_definition_exact(self):
        # row 3 depends on rows 0 and 2; row 2 depends on 1; row 1 on 0
        D = np.eye(4)
        D[1, 0] = D[2, 1] = D[3, 0] = D[3, 2] = 1.0
        ls = forward_level_sets(from_dense(D))
        assert list(ls.level_of) == [0, 1, 2, 3]

    def test_upper_entries_ignored(self):
        D = np.eye(4)
        D[0, 3] = 7.0  # upper entry: not a forward dependency
        ls = forward_level_sets(from_dense(D))
        assert ls.n_levels == 1

    def test_validate_passes_on_random(self):
        A = random_csr(40, 0.12, seed=1)
        L = lower_pattern(symmetrize_pattern(A))
        ls = forward_level_sets(L)
        assert validate_levels(ls, L)

    def test_validate_catches_bad_levels(self):
        D = np.eye(3)
        D[1, 0] = 1.0
        L = from_dense(D)
        ls = forward_level_sets(L)
        ls.level_of[1] = 0  # corrupt
        with pytest.raises(InvariantViolation):
            validate_levels(ls, L)

    def test_permutation_groups_by_level(self):
        A = random_csr(30, 0.15, seed=2)
        ls = level_schedule(A)
        perm = ls.permutation()
        lv = ls.level_of[perm]
        assert np.all(np.diff(lv) >= 0)  # nondecreasing level along perm


class TestLevelSchedule:
    def test_ata_at_least_as_constrained_as_a(self):
        """lower(A+Aᵀ) has ≥ as many levels as lower(A) (more edges)."""
        A = random_csr(40, 0.1, seed=3)  # asymmetric
        ls_ata = level_schedule(A, use_ata=True)
        ls_a = level_schedule(A, use_ata=False)
        assert ls_ata.n_levels >= ls_a.n_levels

    def test_symmetric_pattern_identical_both_ways(self):
        A = grid2d(6)
        assert level_schedule(A, use_ata=True).n_levels == level_schedule(
            A, use_ata=False
        ).n_levels

    def test_grid_natural_order_levels_are_antidiagonals(self):
        A = grid2d(5)
        ls = level_schedule(A)
        # 5-pt grid in natural order: level(i,j) = i + j
        assert ls.n_levels == 9

    def test_stats_fields(self):
        A = grid2d(5)
        st = level_set_stats(level_schedule(A))
        assert st["n_levels"] == 9
        assert st["min"] >= 1
        assert st["max"] <= 25
        assert st["min"] <= st["median"] <= st["max"]

    def test_levels_cover_all_rows(self):
        A = random_csr(35, 0.12, seed=4)
        ls = level_schedule(A)
        assert int(ls.level_ptr[-1]) == 35
        assert np.array_equal(np.sort(ls.rows), np.arange(35))
