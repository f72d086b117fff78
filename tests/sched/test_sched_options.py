"""SchedOptions: the frozen knob surface and its cache keys."""

import dataclasses

import pytest

from repro.sched import SchedOptions


def test_defaults_are_the_p2p_status_quo():
    o = SchedOptions()
    assert o.elastic_tol == 0.0  # elastic default is the exact mode


def test_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        SchedOptions().staleness = 0


def test_with_overrides_without_mutation():
    o = SchedOptions()
    o2 = o.with_(max_sweeps=2, staleness=2)
    assert (o2.max_sweeps, o2.staleness) == (2, 2)
    assert (o.max_sweeps, o.staleness) == (128, 4)


@pytest.mark.parametrize(
    "kw",
    [
        {"max_superstep_rows": 0},
        {"balance_factor": 0.99},
        {"staleness": -1},
        {"max_sweeps": 0},
        {"elastic_tol": -1e-9},
    ],
)
def test_validation_rejects_bad_knobs(kw):
    with pytest.raises(ValueError):
        SchedOptions(**kw)


@pytest.mark.parametrize("field", ["balance_factor", "elastic_tol"])
def test_validation_rejects_nan(field):
    """NaN fails every ``<`` test, so a NaN ``elastic_tol`` once ran the exact mode."""
    with pytest.raises(ValueError, match=field):
        SchedOptions(**{field: float("nan")})


def test_cache_keys_cover_only_their_knobs():
    o = SchedOptions()
    # superstep plans don't depend on elastic knobs and vice versa
    assert o.superstep_key() == o.with_(staleness=9).superstep_key()
    assert o.elastic_key() == o.with_(balance_factor=3.0).elastic_key()
    assert o.superstep_key() != o.with_(max_superstep_rows=7).superstep_key()
    assert o.elastic_key() != o.with_(staleness=0).elastic_key()
