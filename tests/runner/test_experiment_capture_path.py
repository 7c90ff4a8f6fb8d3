"""Every rig capture study photographs through the fleet executor.

Each caller runs with ``Phone.photograph`` patched to raise, so a
capture taken outside :class:`FleetExecutor` fails the test. Every
executor call is recorded at ``FleetExecutor.stream``, which ``run``
delegates to, so the streaming population study is seen too. Each
call's units must have the caller's kind and be seeded by the one
rule, ``unit_entropy(seed, environment, image_id[, repeat])`` in
environment → image → repeat order; and the last payload of each
caller must equal :func:`execute_unit` of its unit. That check runs
after the patch is undone, because the per-unit reference path itself
calls ``Phone.photograph``.
"""

import numpy as np
import pytest

from repro.devices.phone import Phone
from repro.devices.profiles import capture_fleet
from repro.fleet.population import generate_devices
from repro.fleet.studies import run_population_study
from repro.lab import (
    EndToEndExperiment,
    LensVariationExperiment,
    LightingVariationExperiment,
    RawCaptureBank,
    RawVsJpegExperiment,
    repeat_shot_demo,
)
from repro.mitigation import build_stability_corpus
from repro.runner.executor import FleetExecutor
from repro.runner.seeds import unit_entropy
from repro.runner.units import execute_unit
from repro.serve.service import CaptureRequest, IngestService, ServeConfig
from tests.runner.test_golden_captures import payload_digest

SEED = 2
S10 = capture_fleet()[0].name
RAW_PHONES = [p.name for p in capture_fleet() if p.supports_raw]
#: One displayed image per class at ``per_class=1``.
IMAGES = range(5)


def rule(environments, image_ids, repeats=None):
    """The seeding rule's entropy tuples, environment → image → repeat."""
    shots = [()] if repeats is None else [(repeat,) for repeat in repeats]
    return [
        unit_entropy(SEED, environment, image_id, *shot)
        for environment in environments
        for image_id in image_ids
        for shot in shots
    ]


#: name -> (run(model), unit kind, expected entropies of each executor
#: call). Fig. 1 stops at its first divergent pair, so its calls are
#: checked as a prefix of one call per scene.
CALLERS = {
    "repeat_shot_demo": (
        lambda model: repeat_shot_demo(model=model, seed=SEED, max_scenes=2),
        "photograph",
        [rule([S10], [scene], range(6)) for scene in range(2)],
    ),
    "build_stability_corpus": (
        lambda model: build_stability_corpus(per_class=1, angles=(0.0,), seed=SEED),
        "photograph",
        [rule(["samsung_galaxy_s10", "iphone_xr"], IMAGES)],
    ),
    "end_to_end": (
        lambda model: EndToEndExperiment(
            phones=capture_fleet()[:2],
            model=model,
            angles=(0.0, 15.0),
            repeats=2,
            seed=SEED,
        ).run(per_class=1),
        "photograph",
        [rule([p.name for p in capture_fleet()[:2]], range(10), range(2))],
    ),
    "raw_capture_bank": (
        lambda model: RawCaptureBank.collect(per_class=1, seed=SEED),
        "raw",
        [rule(RAW_PHONES, IMAGES)],
    ),
    "raw_vs_jpeg": (
        lambda model: RawVsJpegExperiment(model=model, seed=SEED).run(per_class=1),
        "raw_vs_jpeg",
        [rule(RAW_PHONES, IMAGES)],
    ),
    "lighting_variation": (
        lambda model: LightingVariationExperiment(model=model, seed=SEED).run(
            per_class=1
        ),
        "photograph",
        [rule([c[0] for c in LightingVariationExperiment.CONDITIONS], IMAGES)],
    ),
    "lens_variation": (
        lambda model: LensVariationExperiment(model=model, units=2, seed=SEED).run(
            per_class=1
        ),
        "photograph",
        [rule([f"{S10}#unit{i}" for i in range(2)], IMAGES)],
    ),
    "population_study": (
        lambda model: run_population_study(
            fleet_size=3, seed=SEED, scenes=2, repeats=2, model=model
        ),
        "photograph",
        [
            rule(
                [d.profile.name for d in generate_devices(3, seed=SEED)],
                range(2),
                range(2),
            )
        ],
    ),
}


def _forbidden(*args, **kwargs):
    raise AssertionError("Phone.photograph called outside the fleet executor")


def _record_streams(patch):
    """Record ``(units, payloads)`` of every executor call."""
    runs = []
    stream = FleetExecutor.stream

    def recording_stream(self, units):
        units = list(units)
        payloads = []
        runs.append((units, payloads))
        for payload in stream(self, units):
            payloads.append(payload)
            yield payload

    patch.setattr(FleetExecutor, "stream", recording_stream)
    return runs


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_captures_run_through_the_executor(caller, tiny_model, monkeypatch):
    run, kind, expected = CALLERS[caller]
    with monkeypatch.context() as patch:
        runs = _record_streams(patch)
        patch.setattr(Phone, "photograph", _forbidden)
        run(tiny_model)

    assert runs, f"{caller} never ran the fleet executor"
    assert len(runs) <= len(expected)
    for units, payloads in runs:
        assert {unit.kind for unit in units} == {kind}
        assert len(payloads) == len(units)
    entropies = [[unit.entropy for unit in units] for units, _ in runs]
    assert entropies == expected[: len(runs)]
    units, payloads = runs[-1]
    assert payload_digest(payloads[-1]) == payload_digest(execute_unit(units[-1]))


def test_served_units_equal_the_population_study_units(tiny_model, monkeypatch):
    fleet_size, scenes, repeats = 3, 2, 2
    with monkeypatch.context() as patch:
        runs = _record_streams(patch)
        run_population_study(
            fleet_size=fleet_size,
            seed=SEED,
            scenes=scenes,
            repeats=repeats,
            model=tiny_model,
        )
    [(study_units, _)] = runs
    service = IngestService(
        ServeConfig(fleet_size=fleet_size, scenes=scenes, seed=SEED, model="untrained")
    )
    for index, study in enumerate(study_units):
        device, rest = divmod(index, scenes * repeats)
        scene, repeat = divmod(rest, repeats)
        served = service.unit_for(CaptureRequest(index, device, scene, repeat))
        assert served.kind == study.kind
        assert served.profile == study.profile
        assert served.entropy == study.entropy
        assert served.options == study.options
        np.testing.assert_array_equal(served.radiance, study.radiance)
