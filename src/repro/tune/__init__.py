"""repro.tune — closed-loop autotuning and performance-regression tracking.

The eighth layer: turns the committed bench artifacts and the
``repro.obs`` counters into decisions.  Three parts:

* :mod:`repro.tune.features` / :mod:`repro.tune.model` — a pattern
  fingerprint feature vector read off the symbolic cache, the serving
  layer's structural superstep rule, and a deterministic least-squares
  backend/width model fit from ``BENCH_*.json`` exposing
  ``recommend(pattern, sla)``;
* :mod:`repro.tune.controller` — the opt-in, model-free serving-loop
  feedback controller (scheduler override, batch shape, staleness),
  bit-identical numerics by construction;
* :mod:`repro.tune.regress` — noise-aware diffing of committed bench
  files, the ``repro tune check-regressions`` CI gate.
"""

from .controller import TuneController, TunePolicy
from .features import PatternFeatures, extract_features
from .model import (
    SlaSpec,
    TuneChoice,
    TuneModel,
    default_model,
    fit_model,
)
from .regress import check_regressions, plant_slowdown
from .shapes import bench_shape

__all__ = [
    "PatternFeatures",
    "extract_features",
    "SlaSpec",
    "TuneChoice",
    "TuneModel",
    "default_model",
    "fit_model",
    "TuneController",
    "TunePolicy",
    "check_regressions",
    "plant_slowdown",
    "bench_shape",
]
