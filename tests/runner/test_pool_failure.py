"""Failure paths: a pool worker dies, or the consumer of a stream fails.

The pool forks, so replacing ``run_unit_group`` in the executor module
before the pool starts makes every forked worker call the replacement.
It kills the worker process outright (no exception, no cleanup), which
is how an OOM kill or a segfault in a native kernel looks to the parent.

* Death in the first group: the run fails loudly, writes nothing to the
  cache, and leaves the executor usable.
* Death on a later group of a population study's study-wide pool, and
  inference raising while groups are in flight: the error propagates,
  no worker outlives the study, every group collected before the
  failure is cached with the serial bytes, and reruns equal the serial
  study.
"""

import functools
import multiprocessing
import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.runtime import DeviceRuntime
from repro.fleet import run_population_study
from repro.fleet.population import generate_devices
from repro.lab.rig import CaptureRig
from repro.nn.model import micro_mobilenet
from repro.runner import CaptureCache, CaptureUnit, FleetExecutor, unit_entropy
from repro.runner import executor
from repro.runner.units import execute_unit_group, unit_cache_key
from repro.scenes.dataset import build_dataset
from repro.scenes.screen import Screen


def _die_in_worker(units, observed=False):
    os._exit(1)


def _units(radiance):
    return [
        CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "pool-failure", profile.name, repeat),
        )
        for profile in capture_fleet()[:2]
        for repeat in range(2)
    ]


def test_worker_death_mid_group_fails_cleanly(small_radiance, tmp_path, monkeypatch):
    units = _units(small_radiance)
    cache = CaptureCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(executor, "run_unit_group", _die_in_worker)
        with pytest.raises(BrokenProcessPool):
            FleetExecutor(workers=2, cache=cache).run(units)

    assert len(cache) == 0
    assert not list((tmp_path / "cache").rglob("*.npz"))

    fresh = FleetExecutor(workers=2, cache=cache).run(units)
    serial = FleetExecutor(workers=0).run(units)
    for got, want in zip(fresh, serial):
        assert got.keys() == want.keys()
        for name in want:
            assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes()


# ----------------------------------------------------------------------
# A study-wide pool: a worker dies on a later group, or the consumer fails
# ----------------------------------------------------------------------
FLEET_SIZE = 24
SCENES = 2
DOOMED = 19  # the 20th device's group kills its worker


@pytest.fixture(scope="module")
def study_model():
    return micro_mobilenet(num_classes=8, seed=0)


def _study(model, fleet_size=FLEET_SIZE, scenes=SCENES, **kwargs):
    return run_population_study(
        fleet_size=fleet_size, scenes=scenes, seed=0, model=model, **kwargs
    )


def _study_units():
    """The capture units ``run_population_study`` builds, in its order."""
    rig = CaptureRig(screen=Screen(seed=0), angles=(0.0,))
    displayed = rig.present(list(build_dataset(per_class=1, seed=0)))[:SCENES]
    return [
        CaptureUnit(
            kind="photograph",
            profile=device.profile,
            radiance=shown.radiance.pixels,
            entropy=unit_entropy(0, device.profile.name, shown.image_id, 0),
        )
        for device in generate_devices(FLEET_SIZE, seed=0)
        for shown in displayed
    ]


def _die_on_device(name, units, observed=False):
    if units[0].profile.name == name:
        os._exit(1)
    return execute_unit_group(units), None, None


def _same_outcome(a, b):
    assert a.store.table().tobytes() == b.store.table().tobytes()
    assert a.summary == b.summary


def test_worker_death_on_a_later_group_of_a_study(study_model, tmp_path, monkeypatch):
    units = _study_units()
    serial_payloads = FleetExecutor(workers=0).run(units)
    doomed = units[DOOMED * SCENES].profile.name
    cache = CaptureCache(tmp_path / "cache")
    with monkeypatch.context() as patch:
        patch.setattr(
            executor, "run_unit_group", functools.partial(_die_on_device, doomed)
        )
        with pytest.raises(BrokenProcessPool):
            _study(study_model, workers=2, cache=cache)
    assert not multiprocessing.active_children()

    # Groups collected before the failure were written as they finished:
    # a prefix of the study's units, each byte-equal to the serial payload.
    cached = [unit_cache_key(unit) in cache for unit in units]
    written = cached.index(False)
    assert not any(cached[written:])
    assert 0 < written <= DOOMED * SCENES
    for unit, want in zip(units[:written], serial_payloads):
        got = cache.get(unit_cache_key(unit))
        assert got.keys() == want.keys()
        for name in want:
            assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes()

    serial = _study(study_model)
    _same_outcome(_study(study_model, workers=2, cache=cache), serial)
    _same_outcome(_study(study_model, workers=2), serial)


def test_consumer_failure_shuts_the_study_pool_down(study_model, monkeypatch):
    predict = DeviceRuntime.predict
    calls = []

    def fail_on_second_batch(runtime, images):
        calls.append(len(images))
        if len(calls) == 2:
            raise RuntimeError("inference failed")
        return predict(runtime, images)

    monkeypatch.setattr(DeviceRuntime, "predict", fail_on_second_batch)
    # 160 captures: the second 64-frame batch fails with groups in flight.
    with pytest.raises(RuntimeError, match="inference failed"):
        _study(study_model, fleet_size=40, scenes=4, workers=2)
    assert calls == [64, 64]
    assert not multiprocessing.active_children()
