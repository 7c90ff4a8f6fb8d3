"""Tests for the baseline JPEG codec."""

import numpy as np
import pytest

from repro import kernels
from repro.codecs import jpeg
from repro.codecs.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    HuffmanTable,
)
from repro.codecs.jpeg import (
    BASE_LUMA_QUANT,
    JpegDecodeOptions,
    decode_jpeg,
    encode_jpeg,
    quality_scaled_tables,
)
from repro.codecs.registry import decode_any
from repro.imaging import ImageBuffer
from repro.imaging.metrics import psnr


def _smooth_image(seed=0, size=48):
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.random((size, size, 3)), (3, 3, 0))
    img = (img - img.min()) / (img.max() - img.min() + 1e-9)
    return ImageBuffer(img.astype(np.float32))


class TestQuantTables:
    def test_quality_50_is_base(self):
        luma, _ = quality_scaled_tables(50)
        assert np.array_equal(luma, BASE_LUMA_QUANT)

    def test_quality_100_all_ones(self):
        luma, chroma = quality_scaled_tables(100)
        assert np.all(luma == 1)
        assert np.all(chroma == 1)

    def test_lower_quality_coarser(self):
        q85, _ = quality_scaled_tables(85)
        q50, _ = quality_scaled_tables(50)
        q10, _ = quality_scaled_tables(10)
        assert np.all(q85 <= q50)
        assert np.all(q50 <= q10)
        assert q10.sum() > q50.sum()

    @pytest.mark.parametrize("quality", [0, 101, -5])
    def test_rejects_out_of_range(self, quality):
        with pytest.raises(ValueError):
            quality_scaled_tables(quality)

    def test_tables_clipped_to_255(self):
        luma, chroma = quality_scaled_tables(1)
        assert luma.max() <= 255 and chroma.max() <= 255
        assert luma.min() >= 1


class TestMarkerStream:
    def test_starts_soi_ends_eoi(self):
        data = encode_jpeg(_smooth_image(), quality=85)
        assert data[:2] == b"\xff\xd8"
        assert data[-2:] == b"\xff\xd9"

    def test_contains_jfif_app0(self):
        data = encode_jpeg(_smooth_image())
        assert b"JFIF\x00" in data[:32]

    def test_decode_rejects_non_jpeg(self):
        with pytest.raises(ValueError):
            decode_jpeg(b"\x00\x01\x02\x03")

    def test_decode_rejects_progressive(self):
        data = bytearray(encode_jpeg(_smooth_image()))
        idx = data.find(b"\xff\xc0")
        data[idx + 1] = 0xC2  # rewrite SOF0 -> SOF2
        with pytest.raises(ValueError):
            decode_jpeg(bytes(data))

    def test_decode_rejects_unsupported_sampling(self):
        data = encode_jpeg(_smooth_image())
        y_420 = bytes([1, 0x22, 0, 2, 0x11, 1])  # SOF: Y samples 2x2
        assert data.count(y_420) == 1
        with pytest.raises(ValueError, match="unsupported sampling"):
            decode_jpeg(data.replace(y_420, bytes([1, 0x21, 0, 2, 0x11, 1])))

    def test_decode_rejects_scan_missing_a_frame_component(self):
        data = encode_jpeg(_smooth_image())
        sos = bytes([0xFF, 0xDA, 0, 12, 3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
        assert data.count(sos) == 1
        # The scan codes only Y and Cb; the frame still declares Cr (id 3).
        short = bytes([0xFF, 0xDA, 0, 10, 2, 1, 0x00, 2, 0x11, 0, 63, 0])
        with pytest.raises(ValueError, match="component 3"):
            decode_jpeg(data.replace(sos, short))

    @pytest.mark.parametrize("marker", [b"\xff\xc0", b"\xff\xda"], ids=["sof", "sos"])
    def test_decode_rejects_empty_header_segment(self, marker):
        # A declared length of 2 leaves no payload for the frame or scan
        # header fields (once struct.error / IndexError).
        data = bytearray(encode_jpeg(_smooth_image()))
        idx = data.find(marker)
        data[idx + 2 : idx + 4] = b"\x00\x02"
        with pytest.raises(ValueError, match="too short"):
            decode_jpeg(bytes(data))

    @pytest.mark.parametrize(
        "segment, patched, match",
        [
            # SOF: Cr quantizes with DQT table 2, which the file never defines.
            (bytes([3, 0x11, 1, 0xFF, 0xC4]), bytes([3, 0x11, 2, 0xFF, 0xC4]), "DQT table 2"),
            # SOS: Cr's AC selector points at DHT table 2, never defined.
            (bytes([3, 0x11, 0, 63, 0]), bytes([3, 0x12, 0, 63, 0]), "AC DHT table 2"),
        ],
        ids=["dqt", "dht"],
    )
    def test_decode_rejects_undefined_table(self, segment, patched, match):
        data = encode_jpeg(_smooth_image())
        assert data.count(segment) == 1
        with pytest.raises(ValueError, match=match):
            decode_jpeg(data.replace(segment, patched))


def _scan_span(data):
    """``(start, end)`` of the entropy-coded scan: after SOS, before EOI."""
    sos = data.find(b"\xff\xda")
    start = sos + 2 + int.from_bytes(data[sos + 2 : sos + 4], "big")
    assert data[-2:] == b"\xff\xd9"
    return start, len(data) - 2


class TestTruncatedScan:
    """A scan cut short raises ``ValueError``, never the bit reader's
    ``EOFError``, whether or not the file still ends in EOI."""

    @pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 0.75, 0.99])
    @pytest.mark.parametrize("eoi", [True, False], ids=["eoi", "no-eoi"])
    def test_truncated_scan(self, fraction, eoi):
        data = encode_jpeg(_smooth_image(size=32), quality=90)
        start, end = _scan_span(data)
        cut = data[: start + int(fraction * (end - start))]
        if eoi:
            cut += b"\xff\xd9"
        with pytest.raises(ValueError):
            decode_jpeg(cut)
        with pytest.raises(ValueError):
            decode_any(cut)


class TestBitFlippedScan:
    """Single-bit flips that once drove a decoded coefficient past int64
    and leaked ``OverflowError`` from the coefficient store."""

    @pytest.mark.parametrize("offset, bit", [(416, 7), (417, 6)])
    def test_bit_flip_raises_value_error(self, offset, bit):
        image = ImageBuffer(
            np.random.default_rng(0).random((32, 32, 3)).astype(np.float32)
        )
        data = bytearray(encode_jpeg(image, quality=90))
        data[offset] ^= 1 << bit
        with pytest.raises(ValueError):
            decode_jpeg(bytes(data))


def _spy_scan_tables(monkeypatch):
    """Record the ``(dc_tables, ac_tables)`` each scan decode receives."""
    seen = []
    original = kernels.decode_jpeg_scan

    def spy(reader, comp_of_unit, block_of_unit, dc_tables, ac_tables, *rest, **kw):
        seen.append((list(dc_tables), list(ac_tables)))
        return original(reader, comp_of_unit, block_of_unit, dc_tables, ac_tables, *rest, **kw)

    monkeypatch.setattr(kernels, "decode_jpeg_scan", spy)
    return seen


class TestHuffmanTableReuse:
    def test_standard_tables_are_shared_across_decodes(self, monkeypatch):
        seen = _spy_scan_tables(monkeypatch)
        decode_jpeg(encode_jpeg(_smooth_image(seed=1), quality=85))
        decode_jpeg(encode_jpeg(_smooth_image(seed=2), quality=60))
        standard = [STD_DC_LUMA, STD_DC_CHROMA, STD_DC_CHROMA]
        standard += [STD_AC_LUMA, STD_AC_CHROMA, STD_AC_CHROMA]
        for dc_tables, ac_tables in seen:
            assert all(t is s for t, s in zip(dc_tables + ac_tables, standard))

    def test_non_standard_dht_still_decodes(self, monkeypatch):
        image = _smooth_image(seed=3)
        expected = decode_jpeg(encode_jpeg(image, quality=85))
        # Same code lengths, symbols reversed: a valid, complete AC table
        # that is not Annex K's, written to the DHT and used by the scan.
        custom = HuffmanTable(STD_AC_LUMA.bits, STD_AC_LUMA.values[::-1])
        with monkeypatch.context() as patch:
            patch.setattr(jpeg, "STD_AC_LUMA", custom)
            data = encode_jpeg(image, quality=85)
        assert bytes(custom.values) in data
        seen = _spy_scan_tables(monkeypatch)
        decoded = decode_jpeg(data)
        ac_luma = seen[0][1][0]
        assert ac_luma is not STD_AC_LUMA and ac_luma is not custom
        assert (ac_luma.bits, ac_luma.values) == (custom.bits, custom.values)
        assert decoded.pixels.tobytes() == expected.pixels.tobytes()


class TestRoundtrip:
    @pytest.mark.parametrize("subsampling", ["4:2:0", "4:4:4"])
    def test_high_quality_high_fidelity(self, subsampling):
        buf = _smooth_image()
        out = decode_jpeg(encode_jpeg(buf, quality=95, subsampling=subsampling))
        assert out.shape == buf.shape
        assert psnr(buf.pixels, out.pixels) > 33.0

    def test_constant_image_near_exact(self):
        buf = ImageBuffer.full(32, 32, 0.5)
        out = decode_jpeg(encode_jpeg(buf, quality=90))
        assert np.abs(out.pixels - 0.5).max() < 0.02

    def test_extreme_values_survive(self):
        # All-black and all-white exercise the DC range extremes.
        for value in (0.0, 1.0):
            buf = ImageBuffer.full(16, 16, value)
            out = decode_jpeg(encode_jpeg(buf, quality=90))
            assert np.abs(out.pixels - value).max() < 0.03

    def test_non_multiple_of_16_dimensions(self):
        rng = np.random.default_rng(5)
        buf = ImageBuffer(rng.random((23, 37, 3)).astype(np.float32))
        out = decode_jpeg(encode_jpeg(buf, quality=90))
        assert out.shape == (23, 37, 3)

    def test_quality_monotonic_in_fidelity(self):
        buf = _smooth_image(seed=3)
        errors = []
        for q in (30, 60, 90):
            out = decode_jpeg(encode_jpeg(buf, quality=q))
            errors.append(np.mean((out.pixels - buf.pixels) ** 2))
        assert errors[0] > errors[1] > errors[2]

    def test_quality_monotonic_in_size(self):
        buf = _smooth_image(seed=4)
        sizes = [len(encode_jpeg(buf, quality=q)) for q in (30, 60, 90)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_444_beats_420_on_chroma_detail(self):
        # Sharp color edges suffer under 4:2:0.
        img = np.zeros((32, 32, 3), dtype=np.float32)
        img[:, ::2, 0] = 1.0
        img[:, 1::2, 2] = 1.0
        buf = ImageBuffer(img)
        e420 = decode_jpeg(encode_jpeg(buf, quality=90, subsampling="4:2:0"))
        e444 = decode_jpeg(encode_jpeg(buf, quality=90, subsampling="4:4:4"))
        err420 = np.mean((e420.pixels - img) ** 2)
        err444 = np.mean((e444.pixels - img) ** 2)
        assert err444 < err420

    def test_rejects_unknown_subsampling(self):
        with pytest.raises(ValueError):
            encode_jpeg(_smooth_image(), subsampling="4:1:1")

    def test_deterministic(self):
        buf = _smooth_image(seed=7)
        assert encode_jpeg(buf, quality=77) == encode_jpeg(buf, quality=77)


class TestDecodeOptions:
    def test_decoder_variants_differ_on_pixels(self):
        """The §7 mechanism: same bytes, different decoder, different pixels."""
        buf = _smooth_image(seed=9)
        data = encode_jpeg(buf, quality=85)
        ref = decode_jpeg(data, JpegDecodeOptions(idct="float"))
        fixed = decode_jpeg(data, JpegDecodeOptions(idct="fixed8"))
        assert ref.shape == fixed.shape
        assert not np.array_equal(ref.to_uint8(), fixed.to_uint8())
        # ...but only barely: max difference of a couple of code values.
        assert np.abs(ref.pixels - fixed.pixels).max() < 5 / 255

    def test_same_options_same_pixels(self):
        data = encode_jpeg(_smooth_image(seed=9), quality=85)
        a = decode_jpeg(data, JpegDecodeOptions(idct="fixed11"))
        b = decode_jpeg(data, JpegDecodeOptions(idct="fixed11"))
        assert np.array_equal(a.pixels, b.pixels)

    def test_rounding_variants(self):
        data = encode_jpeg(_smooth_image(seed=10), quality=85)
        rounded = decode_jpeg(data, JpegDecodeOptions(rounding="round"))
        truncated = decode_jpeg(data, JpegDecodeOptions(rounding="truncate"))
        diff = rounded.to_uint8().astype(int) - truncated.to_uint8().astype(int)
        assert diff.min() >= 0 and diff.max() <= 1
        assert diff.any()

    def test_upsample_variants_differ(self):
        data = encode_jpeg(_smooth_image(seed=11), quality=85)
        fancy = decode_jpeg(data, JpegDecodeOptions(chroma_upsample="bilinear"))
        nearest = decode_jpeg(data, JpegDecodeOptions(chroma_upsample="nearest"))
        assert not np.array_equal(fancy.pixels, nearest.pixels)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"idct": "quantum"},
            {"rounding": "ceil"},
            {"chroma_upsample": "lanczos"},
        ],
    )
    def test_rejects_unknown_options(self, kwargs):
        data = encode_jpeg(_smooth_image())
        with pytest.raises(ValueError):
            decode_jpeg(data, JpegDecodeOptions(**kwargs))
