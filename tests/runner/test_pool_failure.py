"""Failure path: a pool worker dies in the middle of a fused group.

The pool forks, so replacing ``run_group_task`` in the executor module
before ``run`` makes every forked worker call the replacement. It kills
the worker process outright (no exception, no cleanup), which is how an
OOM kill or a segfault in a native kernel looks to the parent. The run
must fail loudly, leave no shared-memory slab behind, write nothing to
the cache, and leave the executor usable.
"""

import os
import types
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import CaptureCache, CaptureUnit, FleetExecutor, unit_entropy
from repro.runner import executor

SHM_DIR = "/dev/shm"


def _die_in_worker(task):
    os._exit(1)


class _RecordingSharedMemory(shared_memory.SharedMemory):
    """``SharedMemory`` that remembers the name of every slab it creates."""

    created = []

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        if kwargs.get("create"):
            self.created.append(self.name)


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


@pytest.mark.skipif(not os.path.isdir(SHM_DIR), reason="needs POSIX /dev/shm")
def test_worker_death_mid_group_fails_cleanly(small_radiance, tmp_path, monkeypatch):
    units = _units(small_radiance)
    cache = CaptureCache(tmp_path / "cache")
    _RecordingSharedMemory.created = []
    with monkeypatch.context() as patch:
        patch.setattr(executor, "run_group_task", _die_in_worker)
        patch.setattr(
            executor,
            "shared_memory",
            types.SimpleNamespace(SharedMemory=_RecordingSharedMemory),
        )
        with pytest.raises(BrokenProcessPool):
            FleetExecutor(workers=2, cache=cache).run(units)

    slabs = _RecordingSharedMemory.created
    assert slabs, "the pooled run created no shared-memory slab"
    leaked = [name for name in slabs if os.path.exists(os.path.join(SHM_DIR, name))]
    assert not leaked, f"slabs left in {SHM_DIR}: {leaked}"
    assert len(cache) == 0
    assert not list((tmp_path / "cache").rglob("*.npz"))

    fresh = FleetExecutor(workers=2, cache=cache).run(units)
    serial = FleetExecutor(workers=0).run(units)
    for got, want in zip(fresh, serial):
        assert got.keys() == want.keys()
        for name in want:
            assert np.asarray(got[name]).tobytes() == np.asarray(want[name]).tobytes()
