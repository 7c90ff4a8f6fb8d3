"""Pinned capture-cache keys.

The :func:`~repro.runner.units.unit_cache_key` digest of every golden
capture unit (``test_golden_captures.golden_units``: each photograph
format override, raw, raw_vs_jpeg, develop with every ISP and codec,
and the generated population devices) is pinned in
``tests/data/golden_cache_keys.json``. A key that moves orphans every
existing ``--cache-dir`` entry (a silent full miss); a key that merges
two units serves one of them the other's payload. Any change to how
keys are computed must leave these digests alone. Regenerate
intentionally with::

    PYTHONPATH=src python -m pytest tests/runner/test_cache_keys.py --regen-golden
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import (
    CaptureCache,
    CaptureUnit,
    FleetExecutor,
    execute_unit,
    unit_entropy,
)
from repro.runner.units import unit_cache_key

from .test_golden_captures import golden_units

KEYS_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_cache_keys.json"


def test_golden_cache_keys(regen_golden):
    keys = {name: unit_cache_key(unit) for name, unit in sorted(golden_units().items())}
    if regen_golden:
        KEYS_PATH.write_text(json.dumps(keys, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden cache keys regenerated")
    golden = json.loads(KEYS_PATH.read_text())
    assert sorted(keys) == sorted(golden)
    moved = [name for name in sorted(golden) if keys[name] != golden[name]]
    assert not moved, f"cache keys moved: {moved}"


def shared_input_units(small_radiance):
    """Units whose profiles, radiance and raw payloads are shared objects.

    Covers repeat shots sharing one radiance array, an equal-content but
    distinct array, a different scene, develop units sharing one raw
    payload beside an equal-content copy and a different frame, and
    units that differ only in their options.
    """
    first, second = capture_fleet()[:2]
    scenes = (small_radiance, small_radiance.copy(), small_radiance * np.float32(0.5))
    units = []
    for profile in (first, second):
        for radiance in scenes:
            for repeat in range(3):
                units.append(
                    CaptureUnit(
                        kind="photograph",
                        profile=profile,
                        radiance=radiance,
                        entropy=unit_entropy(0, profile.name, "shared", repeat),
                    )
                )
        units.append(
            CaptureUnit(
                kind="photograph",
                profile=profile,
                radiance=small_radiance,
                entropy=unit_entropy(0, profile.name, "shared", 0),
                options={"format_override": "png"},
            )
        )
        units.append(
            CaptureUnit(
                kind="raw",
                profile=profile,
                radiance=small_radiance,
                entropy=unit_entropy(0, profile.name, "shared", 0),
            )
        )
    first_raw, second_raw = (execute_unit(u) for u in units if u.kind == "raw")
    raw_copy = {name: np.array(value, copy=True) for name, value in first_raw.items()}
    for payload in (first_raw, first_raw, raw_copy, second_raw):
        for options in ({"isp": "adobe"}, {"isp": "adobe", "codec": "jpeg"}):
            units.append(CaptureUnit(kind="develop", raw=payload, options=dict(options)))
    return units


def test_executor_keys_match_per_unit_keys(small_radiance):
    """One run stores exactly the per-unit keys and replays them all."""
    units = shared_input_units(small_radiance)
    expected = [unit_cache_key(unit) for unit in units]
    cache = CaptureCache()
    first = FleetExecutor(workers=0, cache=cache).run(units)
    assert len(cache) == len(set(expected))
    assert all(key in cache for key in expected)
    cache.stats.reset()
    second = FleetExecutor(workers=0, cache=cache).run(units)
    assert cache.stats.hits == len(units) and cache.stats.misses == 0
    for a, b in zip(first, second):
        assert sorted(a) == sorted(b)
        assert all(np.array_equal(a[name], b[name]) for name in a)


def test_shared_prefixes_keep_every_key(small_radiance):
    """One prefix memo reused across a batch yields the per-unit keys."""
    units = shared_input_units(small_radiance)
    prefixes = {}
    assert [unit_cache_key(u, prefixes) for u in units] == [
        unit_cache_key(u) for u in units
    ]
    # Repeats of one (kind, profile, radiance object) share one prefix:
    # 2 profiles x (photograph on 3 arrays + raw) + develop on 3 payloads.
    assert len(prefixes) == 2 * 4 + 3
