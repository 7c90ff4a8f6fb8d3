"""Failure path: a pool worker dies in the middle of a fused group.

The pool forks, so replacing ``run_unit_group`` in the executor module
before ``run`` makes every forked worker call the replacement. It kills
the worker process outright (no exception, no cleanup), which is how an
OOM kill or a segfault in a native kernel looks to the parent. The run
must fail loudly, write nothing to the cache, and leave the executor
usable.
"""

import os
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import CaptureCache, CaptureUnit, FleetExecutor, unit_entropy
from repro.runner import executor


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
