"""Shape builders: the level structure each family promises, dominant values."""

import numpy as np

from repro.ordering.levelsets import level_schedule
from shapes import chain_matrix, grid_matrix, wide_matrix


class TestStructure:
    def test_chain_is_all_width_one(self):
        F = chain_matrix(50)
        ls = level_schedule(F)
        assert ls.n_levels == 50
        assert all(
            ls.level_ptr[i + 1] - ls.level_ptr[i] == 1 for i in range(ls.n_levels)
        )

    def test_wide_levels_and_width(self):
        F = wide_matrix(6, 8)
        ls = level_schedule(F)
        assert F.n_rows == 48
        assert ls.n_levels == 6
        assert all(
            ls.level_ptr[i + 1] - ls.level_ptr[i] == 8 for i in range(ls.n_levels)
        )

    def test_grid_matches_level_ordered_ilu0(self):
        F = grid_matrix(8)
        assert F.n_rows == 64
        # level order: every row's dependencies sit strictly earlier
        ls = level_schedule(F)
        assert ls.level_ptr[-1] == F.n_rows

    def test_diagonal_dominant_values(self):
        from repro.kernels.plans import diag_positions

        F = chain_matrix(20)
        dp = diag_positions(F)
        assert np.all(F.data[dp] >= 3.0)
