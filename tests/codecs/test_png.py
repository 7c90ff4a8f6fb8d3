"""Tests for the PNG codec."""

import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.codecs.png import PNG_SIGNATURE, decode_png, encode_png
from repro.imaging import ImageBuffer


class TestRoundtrip:
    def test_exact_roundtrip_random(self):
        rng = np.random.default_rng(0)
        rgb = rng.integers(0, 256, (17, 23, 3), dtype=np.uint8)
        buf = ImageBuffer.from_uint8(rgb)
        out = decode_png(encode_png(buf))
        assert np.array_equal(out.to_uint8(), rgb)

    @given(
        arrays(
            np.uint8,
            st.tuples(st.integers(1, 12), st.integers(1, 12), st.just(3)),
            elements=st.integers(0, 255),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_exact_roundtrip_property(self, rgb):
        out = decode_png(encode_png(ImageBuffer.from_uint8(rgb)))
        assert np.array_equal(out.to_uint8(), rgb)

    def test_gradient_compresses_well(self):
        # Smooth gradients are PNG filters' best case.
        grad = np.tile(np.arange(64, dtype=np.uint8) * 4, (64, 1))
        rgb = np.stack([grad, grad, grad], axis=-1)
        data = encode_png(ImageBuffer.from_uint8(rgb))
        assert len(data) < rgb.size / 4

    def test_noise_compresses_poorly(self):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 256, (64, 64, 3), dtype=np.uint8)
        data = encode_png(ImageBuffer.from_uint8(rgb))
        assert len(data) > rgb.size * 0.9

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        buf = ImageBuffer(rng.random((16, 16, 3)).astype(np.float32))
        assert encode_png(buf) == encode_png(buf)

    def test_single_pixel(self):
        buf = ImageBuffer.from_uint8(np.array([[[7, 8, 9]]], dtype=np.uint8))
        out = decode_png(encode_png(buf))
        assert out.to_uint8().tolist() == [[[7, 8, 9]]]


class TestContainer:
    def test_signature(self):
        data = encode_png(ImageBuffer.full(4, 4, 0.5))
        assert data[:8] == PNG_SIGNATURE

    def test_rejects_non_png(self):
        with pytest.raises(ValueError):
            decode_png(b"GIF89a" + b"\x00" * 20)

    def test_crc_verification(self):
        data = bytearray(encode_png(ImageBuffer.full(4, 4, 0.5)))
        # Corrupt one byte inside the IDAT payload.
        idx = data.find(b"IDAT") + 6
        data[idx] ^= 0xFF
        with pytest.raises(ValueError, match="CRC"):
            decode_png(bytes(data))

    def test_rejects_wrong_bit_depth(self):
        data = bytearray(encode_png(ImageBuffer.full(4, 4, 0.5)))
        ihdr_at = data.find(b"IHDR")
        data[ihdr_at + 12] = 16  # bit depth byte
        # Fix the CRC so we hit the depth check, not the CRC check.
        payload = bytes(data[ihdr_at : ihdr_at + 4 + 13])
        crc = zlib.crc32(payload) & 0xFFFFFFFF
        data[ihdr_at + 17 : ihdr_at + 21] = struct.pack(">I", crc)
        with pytest.raises(ValueError, match="truecolor"):
            decode_png(bytes(data))

    def test_multiple_idat_chunks(self):
        """Decoders must concatenate split IDAT chunks."""
        buf = ImageBuffer.full(8, 8, 0.3)
        data = encode_png(buf)
        # Split the single IDAT chunk into two.
        idat_at = data.find(b"IDAT") - 4
        length = struct.unpack(">I", data[idat_at : idat_at + 4])[0]
        payload = data[idat_at + 8 : idat_at + 8 + length]
        head, tail = payload[: length // 2], payload[length // 2 :]

        def chunk(tag, body):
            crc = zlib.crc32(tag + body) & 0xFFFFFFFF
            return struct.pack(">I", len(body)) + tag + body + struct.pack(">I", crc)

        rebuilt = (
            data[:idat_at]
            + chunk(b"IDAT", head)
            + chunk(b"IDAT", tail)
            + data[idat_at + 12 + length :]
        )
        out = decode_png(rebuilt)
        assert np.array_equal(out.to_uint8(), buf.to_uint8())


def _smooth_png():
    from scipy import ndimage

    rng = np.random.default_rng(0)
    img = ndimage.gaussian_filter(rng.random((24, 24, 3)), (3, 3, 0))
    img = (img - img.min()) / (img.max() - img.min())
    return encode_png(ImageBuffer(img.astype(np.float32)))


def _idat_span(data):
    """``(start, end)`` of the IDAT chunk's payload inside ``data``."""
    start = data.find(b"IDAT") + 4
    (length,) = struct.unpack(">I", data[start - 8 : start - 4])
    return start, start + length


class TestMalformed:
    """Truncated or corrupt streams raise ``ValueError``, never a
    ``struct.error`` or ``zlib.error`` from inside the decoder."""

    @pytest.mark.parametrize(
        "cut",
        [
            lambda data: 10,  # inside the IHDR length field
            lambda data: 20,  # inside the IHDR payload
            lambda data: len(data) // 2,  # inside the IDAT payload
            lambda data: len(data) - 13,  # inside the IDAT CRC
            lambda data: len(data) - 1,  # inside the IEND CRC
        ],
        ids=["ihdr-length", "ihdr-payload", "idat-payload", "idat-crc", "iend-crc"],
    )
    def test_truncated_stream(self, cut):
        data = _smooth_png()
        with pytest.raises(ValueError):
            decode_png(data[: cut(data)])

    def test_truncated_deflate_in_valid_chunk(self):
        """A short zlib stream inside a chunk whose length and CRC agree."""
        data = _smooth_png()
        start, end = _idat_span(data)
        body = data[start : (start + end) // 2]
        crc = zlib.crc32(b"IDAT" + body) & 0xFFFFFFFF
        rebuilt = (
            data[: start - 8]
            + struct.pack(">I", len(body))
            + b"IDAT"
            + body
            + struct.pack(">I", crc)
            + data[end + 4 :]
        )
        with pytest.raises(ValueError):
            decode_png(rebuilt)

    @pytest.mark.parametrize(
        "where",
        [
            lambda start, end: 9,  # IHDR length field (no CRC check)
            lambda start, end: start,  # zlib header
            lambda start, end: (start + end) // 2,  # deflate body
            lambda start, end: end - 2,  # adler-32 trailer
        ],
        ids=["ihdr-length", "zlib-header", "deflate-body", "adler32"],
    )
    def test_bit_flip(self, where):
        data = bytearray(_smooth_png())
        start, end = _idat_span(data)
        data[where(start, end)] ^= 0x10
        with pytest.raises(ValueError):
            decode_png(bytes(data), verify_crc=False)


class TestLosslessness:
    """PNG's exactness is what makes §7's zero-PNG-instability hold."""

    def test_bit_exact_through_many_generations(self):
        rng = np.random.default_rng(3)
        buf = ImageBuffer(rng.random((12, 12, 3)).astype(np.float32))
        current = buf
        for _ in range(3):
            current = decode_png(encode_png(current))
        assert np.array_equal(current.to_uint8(), buf.to_uint8())

    def test_all_filter_types_exercised_and_inverted(self):
        # Build an image whose rows favour different filters.
        rows = [
            np.zeros((1, 32, 3), dtype=np.uint8),  # None
            np.cumsum(np.ones((1, 32, 3), dtype=np.uint8) * 3, axis=1).astype(np.uint8),  # Sub
        ]
        rng = np.random.default_rng(4)
        rows.append(rows[1])  # Up (identical to previous)
        rows.append(rng.integers(0, 255, (1, 32, 3), dtype=np.uint8))  # noisy
        grad = np.tile(np.arange(32, dtype=np.uint8)[None, :, None], (1, 1, 3))
        rows.append(grad)  # Average/Paeth territory
        rgb = np.concatenate(rows * 3, axis=0)
        out = decode_png(encode_png(ImageBuffer.from_uint8(rgb)))
        assert np.array_equal(out.to_uint8(), rgb)
