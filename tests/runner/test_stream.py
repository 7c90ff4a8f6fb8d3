"""``FleetExecutor.stream``: ``run``'s payloads, yielded in input order.

``run(units)`` is ``list(stream(units))``, so these tests pin the stream
against ``run`` byte for byte (serial and pooled, with cache hits and
misses interleaved, with ``develop`` singleton groups mixed in), that a
payload is released before later groups execute, and that a ``with``
block shares one process pool across calls while a bare call opens its
own.
"""

import multiprocessing

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import CaptureCache, CaptureUnit, FleetExecutor, execute_unit, unit_entropy
from repro.runner import executor as executor_module


@pytest.fixture(scope="module")
def units(small_radiance):
    """Two phones x 2 scenes x 2 repeats, then raw captures and a develop unit.

    Units of one phone are interleaved with the other's, so fused groups
    are not contiguous in input order; the develop units run as groups
    of one between them.
    """
    scenes = [small_radiance, np.ascontiguousarray(small_radiance[::-1])]
    profiles = [capture_fleet()[0], capture_fleet()[4]]
    photos = [
        CaptureUnit(
            kind="photograph",
            profile=profile,
            radiance=radiance,
            entropy=unit_entropy(0, "stream", profile.name, scene, repeat),
        )
        for scene, radiance in enumerate(scenes)
        for repeat in range(2)
        for profile in profiles
    ]
    raw = CaptureUnit(
        kind="raw",
        profile=profiles[0],
        radiance=small_radiance,
        entropy=unit_entropy(0, "stream", "raw"),
    )
    develop = [
        CaptureUnit(kind="develop", raw=execute_unit(raw), options={"isp": isp})
        for isp in ("adobe", "imagemagick")
    ]
    return photos[:3] + [develop[0], raw] + photos[3:6] + [develop[1]] + photos[6:]


def _assert_same(actual, expected):
    assert len(actual) == len(expected)
    for got, want in zip(actual, expected):
        assert got.keys() == want.keys()
        for name in want:
            a, e = np.asarray(got[name]), np.asarray(want[name])
            assert a.dtype == e.dtype and a.shape == e.shape, name
            assert a.tobytes() == e.tobytes(), name


@pytest.fixture(scope="module")
def serial(units):
    return FleetExecutor(workers=0).run(units)


@pytest.mark.parametrize("workers", [0, 2])
def test_stream_equals_run(units, serial, workers):
    executor = FleetExecutor(workers=workers)
    _assert_same(list(executor.stream(units)), executor.run(units))
    _assert_same(list(executor.stream(units)), serial)


@pytest.mark.parametrize("workers", [0, 2])
def test_stream_with_interleaved_cache_hits(units, serial, workers, tmp_path):
    """Every other unit is warm: hits and fresh groups interleave."""
    cache = CaptureCache(tmp_path / "cache")
    FleetExecutor(workers=0, cache=cache).run(units[::2])
    stored = len(cache)
    streamed = list(FleetExecutor(workers=workers, cache=cache).stream(units))
    _assert_same(streamed, serial)
    assert len(cache) == len(units) > stored
    _assert_same(FleetExecutor(workers=workers, cache=cache).run(units), serial)


def test_stream_yields_before_later_groups_run(units, monkeypatch):
    """The first payload is released after the first group alone."""
    calls = []
    fused = executor_module.execute_unit_group

    def counting(group):
        calls.append(len(group))
        return fused(group)

    monkeypatch.setattr(executor_module, "execute_unit_group", counting)
    stream = FleetExecutor(workers=0).stream(units)
    next(stream)
    assert len(calls) == 1
    rest = list(stream)
    assert len(rest) == len(units) - 1
    assert sum(calls) == len(units)


def _count_pools(monkeypatch):
    starts = []
    base = executor_module.ProcessPoolExecutor

    class CountingPool(base):
        def __init__(self, *args, **kwargs):
            starts.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(executor_module, "ProcessPoolExecutor", CountingPool)
    return starts


def test_with_block_shares_one_pool(units, serial, monkeypatch):
    starts = _count_pools(monkeypatch)
    with FleetExecutor(workers=2) as executor:
        for _ in range(3):
            _assert_same(executor.run(units), serial)
        assert len(multiprocessing.active_children()) == 2
    assert len(starts) == 1
    assert not multiprocessing.active_children()


def test_leaving_the_block_stops_a_suspended_stream(units, serial):
    """An exception in the block shuts the pool down under a live stream."""
    with pytest.raises(RuntimeError, match="consumer"):
        with FleetExecutor(workers=2) as executor:
            stream = executor.stream(units)
            _assert_same([next(stream)], serial[:1])
            raise RuntimeError("consumer failed")
    assert not multiprocessing.active_children()
    stream.close()


def test_each_bare_run_starts_its_own_pool(units, serial, monkeypatch):
    starts = _count_pools(monkeypatch)
    executor = FleetExecutor(workers=2)
    for _ in range(3):
        _assert_same(executor.run(units), serial)
        assert not multiprocessing.active_children()
    assert len(starts) == 3
