"""Observation says what ran: a pinned span and counter inventory.

One traced :meth:`FleetExecutor.run` over a fixed mix of unit kinds —
a fused photograph group of four, a HEIF phone, PNG and WebP format
overrides, ``raw``, ``raw_vs_jpeg`` and two ``develop`` treatments —
runs on a cold disk cache once serially and once on a two-worker pool.
Both runs must:

* leave every payload bit-identical to an unobserved serial run;
* record a well-formed trace: one ``fleet.run`` root, every other span
  nested under a span that exists, every capture-stage span inside a
  ``unit.execute_group``;
* record exactly the pinned span inventory, and the same in-group span
  names and counter totals as each other;
* count one ``unit.execute_group`` per fused group and one
  ``fleet.units_executed`` per unit.

A traced warm replay of the same units reads every payload back from
disk and executes nothing.

A hook that stops recording — ``obs.span(...)`` called without ``with``,
a counter moved off the executed path — changes the inventory; a hook
whose value steers computation changes a payload.
"""

from collections import Counter

import numpy as np
import pytest
from scipy import ndimage

from repro import obs
from repro.devices import capture_fleet
from repro.runner import (
    CaptureCache,
    CaptureUnit,
    FleetExecutor,
    execute_unit,
    unit_entropy,
)

#: Span prefixes recorded inside a fused group (in the worker when pooled).
IN_GROUP = ("unit.", "sensor.", "isp.", "codec.", "kernels.")

#: Every span a cold-cache run of the mix records, by name.
EXPECTED_SPANS = {
    "fleet.run": 1,
    "fleet.cache_probe": 1,
    "cache.disk_write": 11,
    "unit.execute_group": 8,
    "sensor.capture_batch": 6,
    "sensor.optics": 6,
    "sensor.noise": 6,
    "isp.process_batch": 8,
    "isp.BlackLevelCorrection": 8,
    "isp.Demosaic": 8,
    "isp.WhiteBalance": 8,
    "isp.ColorCorrection": 8,
    "isp.ToneMap": 8,
    "isp.GammaEncode": 8,
    "isp.Denoise": 6,
    "isp.Sharpen": 6,
    "isp.Resize": 8,
    "codec.encode": 6,
    "codec.decode": 4,
    "kernels.encode_jpeg_scan": 6,
    "kernels.decode_jpeg_scan": 1,
    "kernels.png_filter": 1,
    "kernels.deflate": 3,
    "kernels.inflate": 3,
}

#: Counters whose totals count work items rather than bytes.
EXPECTED_COUNTS = {
    "fleet.units_submitted": 11,
    "fleet.units_executed": 11,
    "codec.encoded.jpeg": 6,
    "codec.encoded.heif": 1,
    "codec.encoded.png": 1,
    "codec.encoded.webp": 1,
    "capture_cache.miss": 11,
    "capture_cache.store": 11,
}

#: Fused groups in the mix: one per (kind, profile, options), one per
#: ``develop`` unit.
N_GROUPS = 8


def _radiance(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    field = ndimage.gaussian_filter(rng.random((32, 32, 3)), (2, 2, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return field.astype(np.float32)


def _mix():
    scenes = [_radiance(1), _radiance(2)]
    fleet = capture_fleet()

    def capture(kind, profile, scene, repeat, **options):
        return CaptureUnit(
            kind=kind,
            profile=profile,
            radiance=scenes[scene],
            entropy=unit_entropy(0, "inventory", kind, profile.name, scene, repeat),
            options=options,
        )

    units = [
        capture("photograph", fleet[0], scene, repeat)
        for scene in range(2)
        for repeat in range(2)
    ]
    units += [
        capture("photograph", fleet[4], 0, 0),
        capture("photograph", fleet[1], 1, 0, format_override="png"),
        capture("photograph", fleet[2], 0, 0, format_override="webp"),
        capture("raw", fleet[3], 0, 0),
        capture("raw_vs_jpeg", fleet[0], 1, 0),
    ]
    raw = execute_unit(capture("raw", fleet[0], 0, 1))
    units += [
        CaptureUnit(kind="develop", raw=raw, options={"isp": "adobe", "codec": "jpeg"}),
        CaptureUnit(kind="develop", raw=raw, options={"isp": "imagemagick"}),
    ]
    return units


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(units, bare payloads, {workers: (payloads, spans, counters, cache dir)})``.

    Each traced run gets its own cold cache; the warm replay reads the
    serial run's directory back.
    """
    units = _mix()
    bare = FleetExecutor(workers=0).run(units)
    traced = {}
    for workers in (0, 2):
        cache = CaptureCache(tmp_path_factory.mktemp(f"cache{workers}"))
        with obs.observed() as ob:
            payloads = FleetExecutor(workers=workers, cache=cache).run(units)
        traced[workers] = (
            payloads,
            ob.tracer.finished(),
            ob.metrics.snapshot()["counters"],
            cache.cache_dir,
        )
    return units, bare, traced


def _in_group_names(spans):
    return Counter(s.name for s in spans if s.name.startswith(IN_GROUP))


@pytest.mark.parametrize("workers", [0, 2])
def test_traced_payloads_match_bare(runs, workers):
    _, bare, traced = runs
    _assert_payloads_equal(bare, traced[workers][0])


def _assert_payloads_equal(expected_payloads, payloads):
    assert len(payloads) == len(expected_payloads)
    for i, (expected, got) in enumerate(zip(expected_payloads, payloads)):
        assert expected.keys() == got.keys(), i
        for key in expected:
            assert np.array_equal(expected[key], got[key]), (i, key)


@pytest.mark.parametrize("workers", [0, 2])
def test_trace_is_well_formed(runs, workers):
    spans = runs[2][workers][1]
    by_id = {s.span_id: s for s in spans}
    assert len(by_id) == len(spans), "span ids collide"
    roots = [s for s in spans if s.parent_id is None]
    assert [s.name for s in roots] == ["fleet.run"]
    orphans = [
        s.name for s in spans if s.parent_id is not None and s.parent_id not in by_id
    ]
    assert not orphans, f"spans nested under a span that never finished: {orphans}"

    def in_group(span):
        while span.parent_id is not None:
            span = by_id[span.parent_id]
            if span.name == "unit.execute_group":
                return True
        return False

    for span in spans:
        if span.name == "unit.execute_group":
            assert by_id[span.parent_id].name == "fleet.run"
        elif span.name.startswith(IN_GROUP):
            assert in_group(span), f"{span.name} recorded outside a fused group"


@pytest.mark.parametrize("workers", [0, 2])
def test_inventory_is_pinned(runs, workers):
    units, _, traced = runs
    n_units = len(units)
    _, spans, counters, _ = traced[workers]
    assert dict(Counter(s.name for s in spans)) == EXPECTED_SPANS
    groups = [s for s in spans if s.name == "unit.execute_group"]
    assert len(groups) == N_GROUPS
    assert sum(s.attrs["units"] for s in groups) == n_units
    assert counters["fleet.units_executed"] == n_units
    assert {k: counters.get(k) for k in EXPECTED_COUNTS} == EXPECTED_COUNTS


def test_serial_and_pooled_record_the_same_work(runs):
    _, serial_spans, serial_counters, _ = runs[2][0]
    _, pooled_spans, pooled_counters, _ = runs[2][2]
    assert _in_group_names(serial_spans) == _in_group_names(pooled_spans)
    assert serial_counters == pooled_counters


def test_warm_replay_reads_every_unit_from_disk(runs):
    units, bare, traced = runs
    cache = CaptureCache(traced[0][3])
    with obs.observed() as ob:
        payloads = FleetExecutor(workers=2, cache=cache).run(units)
    _assert_payloads_equal(bare, payloads)
    spans = Counter(s.name for s in ob.tracer.finished())
    assert dict(spans) == {
        "fleet.run": 1,
        "fleet.cache_probe": 1,
        "cache.disk_read": len(units),
    }
    counters = ob.metrics.snapshot()["counters"]
    assert counters == {
        "fleet.units_submitted": len(units),
        "capture_cache.hit": len(units),
        "capture_cache.disk_hit": len(units),
    }
