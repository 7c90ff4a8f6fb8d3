"""Pool workers hand the fused pass read-only radiances.

A pooled group arrives as a pickled unit list, and every repeat of a
scene in it unpickles to one shared radiance array. A stage that wrote
into its radiance inside a worker would change the frames of the
group's later units, and only in pooled runs. The worker entry point
therefore marks each radiance read-only before the fused pass, so such
a write raises in the worker instead.
"""

import os
import tempfile

import numpy as np

from repro.devices import capture_fleet
from repro.runner import CaptureUnit, FleetExecutor, executor, unit_entropy


def _units():
    radiance = np.random.default_rng(7).random((48, 48, 3)).astype(np.float32)
    return [
        CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "worker_inputs", profile.name, repeat),
        )
        for profile in capture_fleet()[:2]
        for repeat in range(2)
    ]


def test_worker_radiances_are_read_only(tmp_path, monkeypatch):
    real = executor.execute_unit_group

    def guarded(units):
        # Runs inside the worker entry point, after it unpickled the
        # group; the pool forks, so the patch reaches every worker.
        os.close(tempfile.mkstemp(prefix=f"{os.getpid()}-", dir=tmp_path)[0])
        writable = [u.profile.name for u in units if u.radiance.flags.writeable]
        if writable:
            raise AssertionError(f"writable radiance in a pool worker: {writable}")
        return real(units)

    with monkeypatch.context() as patch:
        patch.setattr(executor, "execute_unit_group", guarded)
        pooled = FleetExecutor(workers=2).run(_units())
    serial = FleetExecutor(workers=0).run(_units())

    calls = [path.name.split("-")[0] for path in tmp_path.iterdir()]
    assert len(calls) == 2, "expected one guarded fused pass per device group"
    assert str(os.getpid()) not in calls, "the guard ran in the parent"
    for a, b in zip(pooled, serial):
        assert a["pixels"].tobytes() == b["pixels"].tobytes()
        assert a["encoded_size"] == b["encoded_size"]
