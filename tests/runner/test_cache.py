"""Unit tests for content-addressed fingerprinting and the capture cache."""

import dataclasses
import io
import zipfile

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.runner import CaptureCache, fingerprint
from repro.runner.units import CaptureUnit, unit_cache_key
from repro.runner.seeds import unit_entropy


def _payload():
    rng = np.random.default_rng(7)
    return {
        "pixels": rng.random((8, 8, 3)).astype(np.float32),
        "encoded_size": np.int64(1234),
        "meta_json": np.array('{"a": 1}'),
    }


# ----------------------------------------------------------------------
# fingerprint()
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_stable_across_calls(self):
        profile = capture_fleet()[0]
        obj = ("v1", profile, np.arange(12.0).reshape(3, 4), {"q": 85})
        assert fingerprint(obj) == fingerprint(obj)

    def test_type_tags_prevent_collisions(self):
        assert fingerprint("1") != fingerprint(1)
        assert fingerprint(1) != fingerprint(1.0)
        assert fingerprint(True) != fingerprint(1)
        assert fingerprint(None) != fingerprint("")
        assert fingerprint(b"ab") != fingerprint("ab")

    def test_array_content_dtype_and_shape_matter(self):
        a = np.arange(6, dtype=np.float32)
        assert fingerprint(a) != fingerprint(a.astype(np.float64))
        assert fingerprint(a) != fingerprint(a.reshape(2, 3))
        b = a.copy()
        b[3] = np.nextafter(b[3], np.float32(np.inf))
        assert fingerprint(a) != fingerprint(b)
        assert fingerprint(a) == fingerprint(a.copy())

    def test_noncontiguous_array_equals_contiguous(self):
        arr = np.arange(24.0).reshape(4, 6)
        assert fingerprint(arr[:, ::2]) == fingerprint(
            np.ascontiguousarray(arr[:, ::2])
        )

    def test_dict_order_insensitive(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})
        assert fingerprint({"a": 1, "b": 2}) != fingerprint({"a": 2, "b": 1})

    def test_dataclass_fields_feed_in(self):
        profile = capture_fleet()[0]
        renamed = dataclasses.replace(profile, name=profile.name + "-x")
        assert fingerprint(profile) != fingerprint(renamed)
        assert fingerprint(profile) == fingerprint(dataclasses.replace(profile))

    def test_unhashable_type_raises(self):
        with pytest.raises(TypeError):
            fingerprint(object())

    def test_unit_cache_key_sensitivity(self, small_radiance):
        profile = capture_fleet()[0]

        def key(**overrides):
            base = dict(
                kind="photograph",
                profile=profile,
                radiance=small_radiance,
                entropy=unit_entropy(0, profile.name, 0, 0),
            )
            base.update(overrides)
            return unit_cache_key(CaptureUnit(**base))

        assert key() == key()
        assert key() != key(entropy=unit_entropy(1, profile.name, 0, 0))
        assert key() != key(radiance=small_radiance * 0.5)
        assert key() != key(options={"quality": 50})
        # Option dict order must not matter.
        assert key(options={"quality": 50, "format_override": "png"}) == key(
            options={"format_override": "png", "quality": 50}
        )


# ----------------------------------------------------------------------
# CaptureCache
# ----------------------------------------------------------------------
class TestCaptureCache:
    def test_memory_roundtrip_and_stats(self):
        cache = CaptureCache()
        payload = _payload()
        assert cache.get("k") is None
        assert cache.stats.misses == 1
        cache.put("k", payload)
        assert cache.stats.stores == 1
        out = cache.get("k")
        assert cache.stats.hits == 1
        assert set(out) == set(payload)
        for name in payload:
            assert np.array_equal(out[name], payload[name])

    def test_get_returns_independent_copies(self):
        cache = CaptureCache()
        cache.put("k", _payload())
        first = cache.get("k")
        first["pixels"][:] = 0
        second = cache.get("k")
        assert not np.array_equal(first["pixels"], second["pixels"])

    def test_put_copies_its_input(self):
        cache = CaptureCache()
        payload = _payload()
        cache.put("k", payload)
        payload["pixels"][:] = 0
        assert cache.get("k")["pixels"].max() > 0

    def test_disk_roundtrip_survives_memory_clear(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        payload = _payload()
        cache.put("deadbeef" * 8, payload)
        cache.clear_memory()
        assert len(cache) == 0
        out = cache.get("deadbeef" * 8)
        for name in payload:
            assert np.array_equal(out[name], payload[name])

    def test_disk_layout_is_sharded(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        key = "abcd" * 16
        cache.put(key, _payload())
        assert (tmp_path / "c" / key[:2] / f"{key}.npz").is_file()

    def test_contains_checks_both_layers(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        key = "ff" * 32
        assert key not in cache
        cache.put(key, _payload())
        assert key in cache
        cache.clear_memory()
        assert key in cache  # still on disk

    def test_torn_disk_file_is_a_miss(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        key = "00" * 32
        path = tmp_path / "c" / key[:2] / f"{key}.npz"
        path.parent.mkdir(parents=True)
        path.write_bytes(b"PK\x03\x04 truncated garbage")
        assert cache.get(key) is None
        assert cache.stats.misses == 1

    def test_disk_entries_are_stored_uncompressed(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        key = "ab" * 32
        cache.put(key, _payload())
        with zipfile.ZipFile(tmp_path / "c" / key[:2] / f"{key}.npz") as archive:
            infos = archive.infolist()
        assert infos and all(i.compress_type == zipfile.ZIP_STORED for i in infos)

    def test_legacy_deflated_entry_is_a_hit(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        key = "cd" * 32
        payload = _payload()
        path = tmp_path / "c" / key[:2] / f"{key}.npz"
        path.parent.mkdir(parents=True)
        with open(path, "wb") as fh:
            np.savez_compressed(fh, **payload)
        out = cache.get(key)
        assert cache.stats.hits == 1 and cache.stats.misses == 0
        assert sorted(out) == sorted(payload)
        for name, value in payload.items():
            value = np.asarray(value)
            assert out[name].dtype == value.dtype and out[name].shape == value.shape
            assert out[name].tobytes() == value.tobytes()

    def test_flipped_byte_in_stored_entry_is_a_miss(self, tmp_path):
        """zipfile's CRC-32 check turns silent pixel damage into a miss."""
        cache = CaptureCache(tmp_path / "c")
        key = "ef" * 32
        payload = _payload()
        cache.put(key, payload)
        cache.clear_memory()
        path = tmp_path / "c" / key[:2] / f"{key}.npz"
        data = bytearray(path.read_bytes())
        start = bytes(data).find(payload["pixels"].tobytes())
        assert start > 0  # stored: the pixel bytes appear verbatim
        data[start + 17] ^= 0x01
        path.write_bytes(bytes(data))
        misses = cache.stats.misses
        assert cache.get(key) is None
        assert cache.stats.misses == misses + 1 and cache.stats.hits == 0

    def test_lru_eviction(self):
        cache = CaptureCache(max_memory_items=2)
        cache.put("a", _payload())
        cache.put("b", _payload())
        cache.get("a")  # refresh "a": "b" is now least recent
        cache.put("c", _payload())
        assert "a" in cache
        assert "b" not in cache
        assert "c" in cache
        assert len(cache) == 2

    def test_memory_only_cache_forgets_on_clear(self):
        cache = CaptureCache()
        cache.put("k", _payload())
        cache.clear_memory()
        assert cache.get("k") is None

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            CaptureCache(max_memory_items=0)

    def test_rejects_cache_dir_that_is_a_file(self, tmp_path):
        clash = tmp_path / "not-a-dir"
        clash.write_text("occupied")
        with pytest.raises(ValueError, match="not a directory"):
            CaptureCache(clash)

    def test_concurrent_puts_into_one_shard_do_not_race(self, tmp_path):
        """Regression: shard-dir creation must tolerate concurrent writers.

        Many threads store keys that all land in the same (fresh) shard
        directory, so every writer races to create it; ``_ensure_dir``'s
        ``exist_ok`` + re-check must make them all succeed.
        """
        from concurrent.futures import ThreadPoolExecutor

        cache = CaptureCache(tmp_path / "c")
        keys = [f"aa{i:062x}" for i in range(16)]  # same "aa" shard

        def store(key):
            CaptureCache(tmp_path / "c").put(key, _payload())
            return key

        with ThreadPoolExecutor(max_workers=8) as pool:
            done = list(pool.map(store, keys))
        assert sorted(done) == sorted(keys)
        cache.clear_memory()
        for key in keys:
            assert cache.get(key) is not None, key

    def test_constructor_creates_cache_dir_eagerly(self, tmp_path):
        target = tmp_path / "deep" / "fleet"
        CaptureCache(target)
        assert target.is_dir()

    def test_stats_reset(self):
        cache = CaptureCache()
        cache.get("missing")
        cache.put("k", _payload())
        cache.get("k")
        cache.stats.reset()
        assert (cache.stats.hits, cache.stats.misses, cache.stats.stores) == (
            0,
            0,
            0,
        )


# ----------------------------------------------------------------------
# Damaged and foreign disk entries
# ----------------------------------------------------------------------
def _small_payload():
    """Every member kind the executor stores, small enough to damage byte by byte."""
    return {
        "pixels": np.arange(18, dtype=np.float32).reshape(2, 3, 3) / 7,
        "encoded_size": np.int64(1234),
        "meta_json": np.array('{"a": 1}'),
        "empty": np.zeros((0, 3), dtype=np.uint8),
    }


def _entry_bytes(payload, compressed=False):
    buf = io.BytesIO()
    (np.savez_compressed if compressed else np.savez)(buf, **payload)
    return buf.getvalue()


def _assert_exact(out, payload):
    assert list(out) == list(payload)
    for name, value in payload.items():
        value = np.asarray(value)
        assert out[name].dtype == value.dtype and out[name].shape == value.shape
        assert out[name].tobytes() == value.tobytes()


class TestDiskEntryFaults:
    """A disk entry reads back exactly, or counts as exactly one miss.

    ``get`` never raises on a damaged file and never returns bytes other
    than the ones stored.
    """

    KEY = "5a" * 32

    def _read(self, cache, data):
        path = cache._disk_path(self.KEY)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(bytes(data))
        cache.clear_memory()
        hits, misses = cache.stats.hits, cache.stats.misses
        out = cache.get(self.KEY)
        if out is None:
            assert (cache.stats.hits, cache.stats.misses) == (hits, misses + 1)
        else:
            assert (cache.stats.hits, cache.stats.misses) == (hits + 1, misses)
        return out

    @pytest.mark.parametrize("compressed", [False, True], ids=["stored", "deflated"])
    def test_every_single_byte_flip(self, tmp_path, compressed):
        payload = _small_payload()
        data = _entry_bytes(payload, compressed)
        cache = CaptureCache(tmp_path / "c")
        _assert_exact(self._read(cache, data), payload)
        masks = np.random.default_rng(31).integers(1, 256, size=len(data))
        outcomes = {"exact": 0, "miss": 0}
        for offset, mask in enumerate(masks):
            damaged = bytearray(data)
            damaged[offset] ^= int(mask)
            out = self._read(cache, damaged)
            if out is None:
                outcomes["miss"] += 1
            else:
                _assert_exact(out, payload)
                outcomes["exact"] += 1
        # Flips in the members' bytes (CRC-checked) are misses; flips in
        # fields the reader never uses (timestamps, say) read back exactly.
        assert outcomes["miss"] > len(data) // 2 and outcomes["exact"] > 0

    @pytest.mark.parametrize("compressed", [False, True], ids=["stored", "deflated"])
    def test_every_truncation(self, tmp_path, compressed):
        payload = _small_payload()
        data = _entry_bytes(payload, compressed)
        cache = CaptureCache(tmp_path / "c")
        for length in range(len(data)):
            out = self._read(cache, data[:length])
            if out is not None:
                _assert_exact(out, payload)

    def test_object_array_entry_is_a_miss(self, tmp_path):
        cache = CaptureCache(tmp_path / "c")
        pickled = _entry_bytes({"meta": np.array([{"a": 1}, None], dtype=object)})
        assert self._read(cache, pickled) is None
        # An empty object array has no bytes to misread: only the dtype refuses it.
        member = io.BytesIO()
        np.lib.format.write_array_header_1_0(
            member, {"descr": "|O", "fortran_order": False, "shape": (0,)}
        )
        entry = io.BytesIO()
        with zipfile.ZipFile(entry, "w") as archive:
            archive.writestr("meta.npy", member.getvalue())
        assert self._read(cache, entry.getvalue()) is None

    def test_member_longer_than_its_header_is_a_miss(self, tmp_path):
        member = io.BytesIO()
        np.save(member, np.arange(4, dtype=np.int32))
        entry = io.BytesIO()
        with zipfile.ZipFile(entry, "w") as archive:
            archive.writestr("pixels.npy", member.getvalue() + b"\0\0\0\0")
        cache = CaptureCache(tmp_path / "c")
        assert self._read(cache, entry.getvalue()) is None

    def test_member_names_sharing_across_dtypes_and_shapes(self, tmp_path):
        """The header memo is keyed by the header bytes, never by member name."""
        cache = CaptureCache(tmp_path / "c")
        grid = np.arange(12)
        variants = [
            {"pixels": grid.astype(np.float32).reshape(2, 2, 3), "n": np.int64(1)},
            {"pixels": grid.astype(np.int16).reshape(3, 4), "n": np.float64(1)},
            {"pixels": grid.astype(np.float32).reshape(4, 3), "n": np.int64(2)},
            {"pixels": np.asfortranarray(grid.reshape(3, 4) / 2), "n": np.int8(3)},
        ]
        keys = [f"{i:02x}" * 32 for i in range(len(variants))]
        for key, payload in zip(keys, variants):
            cache.put(key, payload)
        for _ in range(2):
            cache.clear_memory()
            for key, payload in zip(keys, variants):
                _assert_exact(cache.get(key), payload)
        assert cache.stats.misses == 0
