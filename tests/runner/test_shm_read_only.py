"""Pool workers get the shared input slab read-only.

Every group of a pooled ``run`` that photographs the same scene reads
one region of the input slab. A stage that wrote into its radiance
inside a worker would change the frames of every other group sharing
that region, and only in pooled runs. The worker's input views are
therefore read-only, so such a write raises in the worker instead.
"""

import multiprocessing

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import CaptureUnit, FleetExecutor, shm, unit_entropy

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched worker entry point reaches the pool only by fork",
)


def _units():
    radiance = np.random.default_rng(7).random((48, 48, 3)).astype(np.float32)
    return [
        CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "shm_read_only", profile.name, repeat),
        )
        for profile in capture_fleet()[:2]
        for repeat in range(2)
    ]


def test_worker_radiance_views_are_read_only(monkeypatch):
    real = shm.run_unit_group

    def guarded(units, observed=False):
        writable = [u.profile.name for u in units if u.radiance.flags.writeable]
        if writable:
            raise AssertionError(f"writable radiance in a pool worker: {writable}")
        return real(units, observed)

    monkeypatch.setattr(shm, "run_unit_group", guarded)
    pooled = FleetExecutor(workers=2).run(_units())
    serial = FleetExecutor(workers=0).run(_units())
    for a, b in zip(pooled, serial):
        assert a["pixels"].tobytes() == b["pixels"].tobytes()
        assert a["encoded_size"] == b["encoded_size"]
