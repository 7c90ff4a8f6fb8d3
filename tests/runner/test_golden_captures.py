"""Golden byte-hash regression for every capture unit kind.

A small seeded radiance is captured by each device through
:func:`~repro.runner.units.execute_unit`; the SHA-256 of every payload
(names, dtypes, shapes and bytes of each array) is pinned in
``tests/data/golden_captures.json``. Coverage:

* ``photograph`` — every capture-fleet profile on its native format and
  under each ``format_override``;
* ``raw`` and ``raw_vs_jpeg`` — every capture-fleet profile;
* ``develop`` — every named ISP, with no codec and with each codec;
* ``photograph`` on a few generated population devices.

This is the tripwire for the sensor, noise, ISP and codec layers: a
change to any stage that moves one output bit fails here. Regenerate
intentionally with::

    PYTHONPATH=src python -m pytest tests/runner/test_golden_captures.py --regen-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.fleet.population import generate_devices
from repro.isp.profiles import available_isps
from repro.runner import CaptureUnit, FleetExecutor, execute_unit, unit_entropy

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_captures.json"

FORMATS = ("jpeg", "png", "webp", "heif")


def _radiance() -> np.ndarray:
    """A deterministic, smooth 48x48 radiance field."""
    from scipy import ndimage

    rng = np.random.default_rng(1414)
    field = ndimage.gaussian_filter(rng.random((48, 48, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return field.astype(np.float32)


def payload_digest(payload) -> str:
    """SHA-256 over a payload's sorted (name, dtype, shape, bytes) items."""
    h = hashlib.sha256()
    for name in sorted(payload):
        value = np.asarray(payload[name])
        h.update(name.encode())
        h.update(str(value.dtype).encode())
        h.update(repr(value.shape).encode())
        h.update(value.tobytes())
    return h.hexdigest()


def golden_units():
    """``{case name: CaptureUnit}`` for every pinned case."""
    radiance = _radiance()
    units = {}

    def capture(kind, profile, tag, **options):
        return CaptureUnit(
            kind=kind,
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "golden", kind, profile.name, tag),
            options=options,
        )

    for profile in capture_fleet():
        units[f"photograph/{profile.name}/native"] = capture(
            "photograph", profile, "native"
        )
        for fmt in FORMATS:
            units[f"photograph/{profile.name}/{fmt}"] = capture(
                "photograph", profile, fmt, format_override=fmt
            )
        units[f"raw/{profile.name}"] = capture("raw", profile, "raw")
        units[f"raw_vs_jpeg/{profile.name}"] = capture(
            "raw_vs_jpeg", profile, "raw_vs_jpeg"
        )

    raw = execute_unit(capture("raw", capture_fleet()[0], "develop_source"))
    for isp in available_isps():
        units[f"develop/{isp}/none"] = CaptureUnit(
            kind="develop", raw=raw, options={"isp": isp}
        )
        for codec in FORMATS:
            units[f"develop/{isp}/{codec}"] = CaptureUnit(
                kind="develop", raw=raw, options={"isp": isp, "codec": codec}
            )

    for device in generate_devices(3, seed=14):
        units[f"photograph/generated_{device.index}/native"] = capture(
            "photograph", device.profile, "generated"
        )
    return units


def test_golden_capture_hashes(regen_golden):
    digests = {
        name: payload_digest(execute_unit(unit))
        for name, unit in sorted(golden_units().items())
    }
    if regen_golden:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden capture hashes regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(digests) == sorted(golden)
    drifted = [name for name in sorted(golden) if digests[name] != golden[name]]
    assert not drifted, f"capture payloads drifted: {drifted}"


@pytest.mark.parametrize("workers", [0, 2])
def test_executor_run_matches_goldens(workers):
    """The executor's grouped pass reproduces the same pinned payloads."""
    units = golden_units()
    names = sorted(units)
    payloads = FleetExecutor(workers=workers).run([units[n] for n in names])
    golden = json.loads(GOLDEN_PATH.read_text())
    drifted = [
        name
        for name, payload in zip(names, payloads)
        if payload_digest(payload) != golden[name]
    ]
    assert not drifted, f"executor payloads drifted: {drifted}"
