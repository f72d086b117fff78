"""Feature extraction: deterministic, structural, cache-read only."""

import numpy as np

from repro.tune import extract_features
from repro.tune.shapes import chain_matrix, grid_matrix, wide_matrix


class TestStructuralCounts:
    def test_chain_extremes(self):
        f = extract_features(chain_matrix(40))
        assert f.n == 40
        assert f.n_levels_lower == 40
        assert f.max_width == 1
        assert f.critical_path == 40
        # all levels width 1 land in the first histogram bucket
        assert f.width_hist[0] == 1.0

    def test_wide_extremes(self):
        f = extract_features(wide_matrix(5, 16))
        assert f.n_levels_lower == 5
        assert f.max_width == 16
        assert f.mean_width == 16.0

    def test_vector_roundtrip(self):
        f = extract_features(grid_matrix(6))
        v = f.as_vector()
        assert all(isinstance(x, float) for x in v)
        assert len(v) > 12  # scalars + inlined histogram

    def test_totals_positive(self):
        f = extract_features(grid_matrix(6))
        assert f.nnz > 0 and f.n_levels == f.n_levels_lower + f.n_levels_upper
        assert f.superstep_steps >= 2  # at least one step per sweep direction


class TestDeterminism:
    def test_same_pattern_same_features(self):
        a = extract_features(grid_matrix(8))
        b = extract_features(grid_matrix(8))
        assert a == b
        assert a.as_vector() == b.as_vector()

    def test_plan_params_recorded(self):
        f = extract_features(chain_matrix(10), n_threads=3)
        assert f.plan_threads == 3

    def test_values_do_not_matter(self):
        A = grid_matrix(6)
        B = grid_matrix(6)
        B.data = B.data * 2.0 + 1.0  # same pattern, different values
        fa, fb = extract_features(A), extract_features(B)
        assert fa.fingerprint == fb.fingerprint
        assert fa.as_vector() == fb.as_vector()

    def test_bandwidth(self):
        f = extract_features(chain_matrix(12))
        assert f.bandwidth == 1  # tridiagonal
        g = extract_features(wide_matrix(3, 4))
        assert g.bandwidth == 4  # each row reaches back one chain stride
