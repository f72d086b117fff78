"""``repro tune`` CLI: recommend and fit print the documented JSON."""

import json

from repro.tune.cli import main


def _run(capsys, argv):
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)


def test_recommend_keys(capsys):
    doc = _run(capsys, ["recommend", "--shape", "grid-24", "--sla", "interactive"])
    assert set(doc) == {"shape", "sla", "choice", "serve_scheduler_override"}
    assert (doc["shape"], doc["sla"]) == ("grid-24", "interactive")
    assert set(doc["choice"]) == {
        "backend", "scheduler", "max_batch", "predicted_batch_s"
    }
    assert doc["choice"]["scheduler"] == (doc["serve_scheduler_override"] or "p2p")


def test_fit_keys(capsys):
    doc = _run(capsys, ["fit"])
    assert set(doc) == {"schema", "seed", "width_margin", "backend", "meta"}
    assert set(doc["backend"]) == {"scalar_rate", "batched_coef"}


def test_fit_out_feeds_recommend(capsys, tmp_path):
    out = tmp_path / "model.json"
    assert main(["fit", "--out", str(out)]) == 0
    capsys.readouterr()
    refit = _run(capsys, ["recommend", "--shape", "chain-32"])
    loaded = _run(capsys, ["recommend", "--shape", "chain-32", "--model", str(out)])
    assert loaded == refit
