"""Each study's inference chunking, above one batch.

The chunk sizes reaching ``Model.predict_proba`` are part of a study's
output bits (a chunk's BLAS shapes set its float results), and the
records golden runs at most 20 frames per environment, below one
batch. Here every study runs 65 frames per environment with the capture
replaced by synthetic payloads, and the sizes of the model calls are
pinned: the batched studies cut each environment at 64 frames from its
start, while lighting and lens variation classify each environment in
one call.
"""

import numpy as np
import pytest

from repro.devices.profiles import capture_fleet
from repro.lab import (
    EndToEndExperiment,
    LensVariationExperiment,
    LightingVariationExperiment,
    RawVsJpegExperiment,
)
from repro.nn.model import Model
from repro.runner.executor import FleetExecutor

#: 65 displayed images per environment at one angle.
PER_CLASS = 13
FRAMES = 5 * PER_CLASS


def _synthetic(units):
    """A stand-in payload per unit: its radiance under every pixel key."""
    return [
        {
            "pixels": unit.radiance,
            "jpeg_pixels": unit.radiance,
            "raw_pixels": unit.radiance,
        }
        for unit in units
    ]


@pytest.fixture
def model_calls(monkeypatch):
    """Sizes of every ``Model.predict_proba`` call, in order."""
    sizes = []

    def predict_proba(self, x, batch_size=256):
        sizes.append(len(x))
        return np.full((len(x), 8), 1 / 8, dtype=np.float32)

    monkeypatch.setattr(FleetExecutor, "run", lambda self, units: _synthetic(units))
    monkeypatch.setattr(Model, "predict_proba", predict_proba)
    return sizes


def test_end_to_end_cuts_each_phone_at_64(tiny_model, model_calls):
    phones = capture_fleet()[:2]
    EndToEndExperiment(phones=phones, model=tiny_model, angles=(0.0,)).run(PER_CLASS)
    assert model_calls == [64, FRAMES - 64] * len(phones)


def test_raw_vs_jpeg_cuts_each_phone_and_arm_at_64(tiny_model, model_calls):
    experiment = RawVsJpegExperiment(model=tiny_model)
    experiment.run(per_class=PER_CLASS)
    assert model_calls == [64, FRAMES - 64] * 2 * len(experiment.profiles)


def test_lighting_classifies_each_condition_in_one_call(tiny_model, model_calls):
    LightingVariationExperiment(model=tiny_model).run(PER_CLASS)
    assert model_calls == [FRAMES] * len(LightingVariationExperiment.CONDITIONS)


def test_lens_classifies_each_unit_in_one_call(tiny_model, model_calls):
    LensVariationExperiment(model=tiny_model, units=2).run(PER_CLASS)
    assert model_calls == [FRAMES] * 2
