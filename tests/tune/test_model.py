"""Cost model: deterministic fit, serializable, sane recommendations."""

import numpy as np
import pytest

from repro.tune import SlaSpec, default_model, extract_features
from repro.tune.features import serve_scheduler
from repro.tune.model import TuneModel, WIDTHS
from repro.tune.shapes import chain_matrix, grid_matrix, wide_matrix


@pytest.fixture(scope="module")
def model():
    return default_model()


class TestFit:
    def test_refit_is_bit_identical(self, model):
        again = default_model()
        assert model.to_dict() == again.to_dict()

    def test_roundtrip_serialization(self, model):
        doc = model.to_dict()
        back = TuneModel.from_dict(doc)
        assert back.to_dict() == doc

    def test_wrong_schema_rejected(self):
        with pytest.raises(ValueError, match="schema"):
            TuneModel.from_dict({"schema": "bogus/v0"})

    def test_empty_results_dir_falls_back(self, tmp_path):
        """No bench files (an installed package): fixed fallback rates."""
        m = default_model(str(tmp_path))
        assert m.backend_scalar_rate > 0 and m.width_margin == 0.05
        assert m.recommend(grid_matrix(6)).max_batch in WIDTHS


class TestRecommend:
    def test_choice_fields_name_real_paths(self, model):
        c = model.recommend(grid_matrix(12))
        assert c.backend in ("scalar", "batched")
        assert c.scheduler in ("p2p", "superstep")
        assert c.max_batch in WIDTHS
        assert c.predicted_batch_s > 0

    def test_chain_prefers_dag_partition(self, model):
        """Deep/thin DAGs are the superstep win the crossover study records."""
        f = extract_features(chain_matrix(400), n_threads=68)
        assert model.recommend(f).scheduler == "superstep"

    def test_wide_prefers_p2p(self, model):
        """One fully parallel level: a DAG partition saves no sync."""
        f = extract_features(wide_matrix(1, 128), n_threads=14)
        assert model.recommend(f).scheduler == "p2p"

    def test_tighter_sla_narrower_batch(self, model):
        f = extract_features(grid_matrix(16))
        inter = model.recommend(f, "interactive")
        batch = model.recommend(f, "batch")
        assert inter.max_batch <= batch.max_batch

    def test_accepts_features_matrix_and_sla_spellings(self, model):
        A = grid_matrix(8)
        f = extract_features(A)
        by_matrix = model.recommend(A, "standard")
        by_features = model.recommend(f, SlaSpec.from_class("standard"))
        assert by_matrix == by_features

    def test_unknown_sla_raises(self, model):
        with pytest.raises(ValueError, match="SLA"):
            model.recommend(grid_matrix(6), "platinum")

    def test_unknown_scheduler_raises(self, model):
        with pytest.raises(ValueError, match="scheduler"):
            model.sync_points_for(extract_features(grid_matrix(6)), "elastic")


class TestServeScheduler:
    def test_override_only_when_syncs_cheaper(self):
        f = extract_features(chain_matrix(100))
        assert serve_scheduler(f.superstep_steps, f.n_levels_lower) == "superstep"
        assert f.superstep_steps < 2 * f.n_levels_lower

    def test_no_override_when_level_charge_wins(self):
        f = extract_features(wide_matrix(4, 64))
        ov = serve_scheduler(f.superstep_steps, f.n_levels_lower)
        if ov is None:
            assert f.superstep_steps >= 2 * f.n_levels_lower
        else:
            assert f.superstep_steps < 2 * f.n_levels_lower


class TestWidthEconomics:
    def test_batch_cost_increases_with_width(self, model):
        f = extract_features(grid_matrix(12))
        costs = [model.batch_cost(f, "p2p", k) for k in (1, 4, 16)]
        assert costs == sorted(costs)

    def test_per_request_cost_decreases(self, model):
        f = extract_features(grid_matrix(12))
        per_req = [model.batch_cost(f, "p2p", k) / k for k in (1, 4, 16)]
        assert per_req[0] > per_req[-1]

    def test_width_feasibility_respects_budget(self, model):
        f = extract_features(grid_matrix(12))
        sla = SlaSpec(sla_class="tight", budget_factor=1.0)
        width, batch_s = model.pick_width(f, "p2p", sla)
        assert width == 1
        assert batch_s == pytest.approx(model.batch_cost(f, "p2p", 1))
