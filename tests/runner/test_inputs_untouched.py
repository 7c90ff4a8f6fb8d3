"""Capture stages leave their inputs untouched, on every execution path.

The capture cache keys a unit by its radiance (or raw frame), the pool
ships one radiance buffer to every repeat that names it, and a device's
repeats share one sensor front end. All three assume that no stage
writes into an array it was handed. This suite makes the inputs of
every golden capture unit read-only and runs them through
:func:`execute_unit`, the serial fused executor and a two-worker pool:

* a stage that writes into a read-only input raises on the spot, in
  process and in pool workers (which mark their unpickled radiances
  read-only; ``test_worker_inputs.py`` pins that);
* every payload must still hash to the writable-input reference, so a
  stage that copies defensively but computes from a mutated alias
  shows up as drift;
* every input must hash to its digest from before the run.

The scope is the whole capture path — sensor, device, ISP, codec,
imaging, kernel and runner code — not a list of "pure" modules.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.runner import FleetExecutor, execute_unit

from .test_golden_captures import GOLDEN_PATH, golden_units, payload_digest


def _inputs(unit):
    """The caller-owned arrays a unit hands to the capture path."""
    if unit.kind == "develop":
        return [v for v in unit.raw.values() if isinstance(v, np.ndarray)]
    return [unit.radiance]


def _array_digest(array: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(str(array.dtype).encode())
    h.update(repr(array.shape).encode())
    h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def reference():
    """``{case: payload digest}`` of writable-input runs.

    ``test_golden_captures.py`` pins these digests for ``execute_unit``
    on the same units with writable inputs.
    """
    return json.loads(GOLDEN_PATH.read_text())


def _frozen_units():
    """The golden units with every input array marked read-only."""
    units = golden_units()
    for unit in units.values():
        for array in _inputs(unit):
            array.setflags(write=False)
    return units


def _run_per_unit(units):
    return [execute_unit(unit) for unit in units]


def _run_serial(units):
    return FleetExecutor(workers=0).run(units)


def _run_pooled(units):
    return FleetExecutor(workers=2).run(units)


@pytest.mark.parametrize(
    "run",
    [_run_per_unit, _run_serial, _run_pooled],
    ids=["execute_unit", "workers0", "workers2"],
)
def test_read_only_inputs_give_reference_payloads(run, reference):
    units = _frozen_units()
    names = sorted(units)
    before = {
        name: [_array_digest(a) for a in _inputs(units[name])] for name in names
    }

    payloads = run([units[name] for name in names])

    drifted = [
        name
        for name, payload in zip(names, payloads)
        if payload_digest(payload) != reference[name]
    ]
    assert not drifted, f"payloads drifted with read-only inputs: {drifted}"
    touched = [
        name
        for name in names
        if [_array_digest(a) for a in _inputs(units[name])] != before[name]
    ]
    assert not touched, f"inputs changed by the capture path: {touched}"
