"""Tests for the future-work extension experiments."""

import pytest

from repro.core import instability
from repro.lab import LensVariationExperiment, LightingVariationExperiment
from tests.conftest import environments


class TestLightingVariation:
    def test_environments_are_conditions(self, tiny_model):
        result = LightingVariationExperiment(model=tiny_model, seed=0).run(per_class=1)
        assert environments(result) == ["dim_warm", "nominal", "bright_cool"]
        assert len(result) == 15  # 5 scenes x 3 conditions

    def test_instability_defined(self, tiny_model):
        result = LightingVariationExperiment(model=tiny_model, seed=0).run(per_class=1)
        assert 0.0 <= instability(result) <= 1.0

    def test_deterministic(self, tiny_model):
        a = LightingVariationExperiment(model=tiny_model, seed=1).run(per_class=1)
        b = LightingVariationExperiment(model=tiny_model, seed=1).run(per_class=1)
        assert [r.predicted_label for r in a] == [r.predicted_label for r in b]


class TestLensVariation:
    def test_units_distinct(self, tiny_model):
        exp = LensVariationExperiment(model=tiny_model, units=3, seed=0)
        profiles = exp._unit_profiles()
        assert len(profiles) == 3
        blurs = {p.sensor.lens.blur_sigma for p in profiles}
        assert len(blurs) == 3  # tolerances actually vary

    def test_rejects_single_unit(self, tiny_model):
        with pytest.raises(ValueError):
            LensVariationExperiment(model=tiny_model, units=1)

    def test_run_produces_cross_unit_records(self, tiny_model):
        result = LensVariationExperiment(model=tiny_model, units=2, seed=0).run(per_class=1)
        assert len(environments(result)) == 2
        assert 0.0 <= instability(result) <= 1.0
