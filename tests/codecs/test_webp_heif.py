"""Tests for the WebP-like and HEIF-like codecs."""

import numpy as np
import pytest

from repro.codecs.heif import decode_heif, encode_heif
from repro.codecs.webp import decode_webp, encode_webp
from repro.imaging import ImageBuffer
from repro.imaging.metrics import psnr


def _smooth_image(seed=0, size=48):
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    img = ndimage.gaussian_filter(rng.random((size, size, 3)), (3, 3, 0))
    img = (img - img.min()) / (img.max() - img.min() + 1e-9)
    return ImageBuffer(img.astype(np.float32))


@pytest.mark.parametrize(
    "encode,decode",
    [(encode_webp, decode_webp), (encode_heif, decode_heif)],
    ids=["webp", "heif"],
)
class TestCommonCodecBehaviour:
    def test_roundtrip_fidelity(self, encode, decode):
        buf = _smooth_image()
        out = decode(encode(buf, quality=90))
        assert out.shape == buf.shape
        assert psnr(buf.pixels, out.pixels) > 30.0

    def test_quality_monotonic_fidelity(self, encode, decode):
        buf = _smooth_image(seed=1)
        errs = []
        for q in (20, 60, 95):
            out = decode(encode(buf, quality=q))
            errs.append(np.mean((out.pixels - buf.pixels) ** 2))
        assert errs[0] > errs[2]

    def test_quality_monotonic_size(self, encode, decode):
        buf = _smooth_image(seed=2)
        sizes = [len(encode(buf, quality=q)) for q in (20, 95)]
        assert sizes[0] < sizes[1]

    def test_odd_dimensions(self, encode, decode):
        rng = np.random.default_rng(3)
        buf = ImageBuffer(rng.random((19, 29, 3)).astype(np.float32))
        out = decode(encode(buf, quality=80))
        assert out.shape == (19, 29, 3)

    def test_deterministic(self, encode, decode):
        buf = _smooth_image(seed=4)
        assert encode(buf, quality=70) == encode(buf, quality=70)

    def test_rejects_bad_quality(self, encode, decode):
        with pytest.raises(ValueError):
            encode(_smooth_image(), quality=0)

    def test_constant_image(self, encode, decode):
        buf = ImageBuffer.full(32, 32, 0.6)
        out = decode(encode(buf, quality=70))
        assert np.abs(out.pixels - 0.6).max() < 0.05


@pytest.mark.parametrize(
    "encode,decode",
    [(encode_webp, decode_webp), (encode_heif, decode_heif)],
    ids=["webp", "heif"],
)
class TestMalformed:
    """Truncated or corrupt streams raise ``ValueError``, never a
    ``struct.error`` or ``zlib.error`` from inside the decoder."""

    @pytest.mark.parametrize(
        "cut",
        [
            lambda data: 6,  # inside the width/height/quality header
            lambda data: 9,  # header only, no deflate stream
            lambda data: len(data) // 2,  # inside the deflate body
            lambda data: len(data) - 1,  # inside the adler-32 trailer
        ],
        ids=["header", "no-payload", "deflate-body", "adler32"],
    )
    def test_truncated_stream(self, encode, decode, cut):
        data = encode(_smooth_image(seed=8, size=24))
        with pytest.raises(ValueError):
            decode(data[: cut(data)])

    @pytest.mark.parametrize(
        "where",
        [
            lambda data: 9,  # zlib header
            lambda data: len(data) // 2,  # deflate body
            lambda data: len(data) - 2,  # adler-32 trailer
        ],
        ids=["zlib-header", "deflate-body", "adler32"],
    )
    def test_bit_flip(self, encode, decode, where):
        data = bytearray(encode(_smooth_image(seed=8, size=24)))
        data[where(data)] ^= 0x10
        with pytest.raises(ValueError):
            decode(bytes(data))


class TestFormatDistinctness:
    """Cross-format divergence is the mechanism behind Table 3."""

    def test_webp_heif_jpeg_artifacts_differ(self):
        from repro.codecs.jpeg import decode_jpeg, encode_jpeg

        buf = _smooth_image(seed=5)
        via_jpeg = decode_jpeg(encode_jpeg(buf, quality=75)).to_uint8()
        via_webp = decode_webp(encode_webp(buf, quality=75)).to_uint8()
        via_heif = decode_heif(encode_heif(buf, quality=75)).to_uint8()
        assert not np.array_equal(via_jpeg, via_webp)
        assert not np.array_equal(via_jpeg, via_heif)
        assert not np.array_equal(via_webp, via_heif)

    def test_magic_bytes_distinct(self):
        buf = _smooth_image(seed=6, size=32)
        assert encode_webp(buf)[:4] == b"RPWB"
        assert encode_heif(buf)[:4] == b"RPHF"

    def test_decoders_reject_cross_format(self):
        buf = _smooth_image(seed=7, size=32)
        with pytest.raises(ValueError):
            decode_webp(encode_heif(buf))
        with pytest.raises(ValueError):
            decode_heif(encode_webp(buf))


class TestWebpPrediction:
    def test_horizontal_structure_predicts_well(self):
        # Rows of constant color are horizontal-prediction's best case;
        # the coded size should beat a noise image of the same size.
        rng = np.random.default_rng(8)
        stripes = np.tile(rng.random((32, 1, 3)).astype(np.float32), (1, 32, 1))
        noise = rng.random((32, 32, 3)).astype(np.float32)
        assert len(encode_webp(ImageBuffer(stripes), quality=70)) < len(
            encode_webp(ImageBuffer(noise), quality=70)
        )


class TestHeifQuantizer:
    def test_deadzone_zeroes_small_coefficients(self):
        from repro.codecs.heif import _deadzone_quantize

        quant = np.full((16, 16), 10.0)
        coeffs = np.full((1, 16, 16), 5.0)  # 0.5 * step, below deadzone
        assert np.all(_deadzone_quantize(coeffs, quant) == 0)

    def test_large_coefficients_survive(self):
        from repro.codecs.heif import _deadzone_quantize

        quant = np.full((16, 16), 10.0)
        coeffs = np.full((1, 16, 16), 25.0)
        assert np.all(_deadzone_quantize(coeffs, quant) == 2)
