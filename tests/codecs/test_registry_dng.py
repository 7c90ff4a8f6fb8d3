"""Tests for the codec registry and the raw (DNG-like) container."""

import numpy as np
import pytest

from repro.codecs import (
    Codec,
    available_codecs,
    decode_dng,
    encode_dng,
    get_codec,
    register_codec,
    sniff_format,
)
from repro.codecs.registry import _REGISTRY
from repro.imaging import ImageBuffer, RawImage


class TestRegistry:
    def test_builtin_codecs_present(self):
        assert {"jpeg", "png", "webp", "heif"} <= set(available_codecs())

    def test_get_unknown_raises_with_listing(self):
        with pytest.raises(KeyError, match="jpeg"):
            get_codec("avif")

    def test_lossless_flags(self):
        assert get_codec("png").lossless
        assert not get_codec("jpeg").lossless
        assert not get_codec("webp").lossless
        assert not get_codec("heif").lossless

    def test_roundtrip_helper(self):
        buf = ImageBuffer.full(16, 16, 0.4)
        out = get_codec("png").roundtrip(buf)
        assert np.array_equal(out.to_uint8(), buf.to_uint8())

    def test_register_duplicate_rejected(self):
        codec = get_codec("png")
        with pytest.raises(ValueError):
            register_codec(codec)

    def test_register_custom(self):
        dummy = Codec(
            name="test-dummy",
            encode=lambda img: b"X",
            decode=lambda data: ImageBuffer.full(1, 1, 0.0),
            lossless=False,
        )
        register_codec(dummy)
        try:
            assert "test-dummy" in available_codecs()
        finally:
            _REGISTRY.pop("test-dummy")


class TestSniff:
    def test_sniffs_all_formats(self):
        buf = ImageBuffer.full(16, 16, 0.5)
        for name in ("jpeg", "png", "webp", "heif"):
            data = get_codec(name).encode(buf)
            assert sniff_format(data) == name

    def test_sniffs_dng(self):
        raw = RawImage(np.zeros((4, 4), dtype=np.float32))
        assert sniff_format(encode_dng(raw)) == "dng"

    def test_unknown_raises(self):
        with pytest.raises(ValueError):
            sniff_format(b"BM12345678")


class TestDng:
    def test_roundtrip_preserves_mosaic(self):
        rng = np.random.default_rng(0)
        raw = RawImage(
            rng.random((8, 10)).astype(np.float32),
            pattern="GRBG",
            black_level=0.05,
            white_level=0.98,
            wb_gains=(2.0, 1.0, 1.5),
        )
        out = decode_dng(encode_dng(raw))
        assert out.pattern == "GRBG"
        assert out.black_level == pytest.approx(0.05)
        assert out.white_level == pytest.approx(0.98)
        assert out.wb_gains[0] == pytest.approx(2.0)
        # 16-bit fixed point: error bounded by half a code value.
        assert np.abs(out.mosaic - raw.mosaic).max() <= 0.5 / 65535

    def test_deterministic(self):
        raw = RawImage(np.ones((4, 4), dtype=np.float32) * 0.5)
        assert encode_dng(raw) == encode_dng(raw)

    def test_rejects_non_dng(self):
        with pytest.raises(ValueError):
            decode_dng(b"JUNKJUNKJUNK")

    def test_compresses_flat_fields(self):
        flat = RawImage(np.full((64, 64), 0.5, dtype=np.float32))
        rng = np.random.default_rng(1)
        noisy = RawImage(rng.random((64, 64)).astype(np.float32))
        assert len(encode_dng(flat)) < len(encode_dng(noisy))
