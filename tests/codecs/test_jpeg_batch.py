"""The fused JPEG roundtrip is bit-identical to encode-then-decode.

``jpeg_roundtrip_batch`` encodes a batch in one vectorized pass and
reconstructs each item's decoded pixels from the encoder's own quantized
blocks — skipping the marker parse and entropy decode entirely. Both the
file bytes and the decoded buffers must equal the serial
``encode_jpeg`` + ``decode_jpeg`` pair — also when that pair entropy-codes
through the scalar oracle in ``tests/kernels/reference.py`` — for every
geometry, subsampling mode, and decode option the serial path supports.
"""

import numpy as np
import pytest

from repro import kernels
from repro.codecs.jpeg import (
    JpegDecodeOptions,
    decode_jpeg,
    encode_jpeg,
    jpeg_roundtrip_batch,
)
from repro.imaging.image import ImageBuffer
from tests.kernels import reference


def _images(shapes, seed=0):
    out = []
    for i, (h, w) in enumerate(shapes):
        rng = np.random.default_rng((seed, i))
        from scipy import ndimage

        field = ndimage.gaussian_filter(rng.random((h, w, 3)), (2, 2, 0))
        field = (field - field.min()) / max(field.max() - field.min(), 1e-9)
        out.append(ImageBuffer(field.astype(np.float32)))
    return out


@pytest.mark.parametrize("scan_coder", ["fast", "reference"])
@pytest.mark.parametrize("subsampling", ["4:2:0", "4:4:4"])
def test_matches_serial_roundtrip(monkeypatch, scan_coder, subsampling):
    """``scan_coder="reference"`` runs the serial pair's Huffman encode and
    decode through the scalar oracle instead of ``repro.kernels``."""
    images = _images([(48, 48), (48, 48), (48, 48)])
    fused = jpeg_roundtrip_batch(images, quality=85, subsampling=subsampling)
    if scan_coder == "reference":
        monkeypatch.setattr(kernels, "encode_jpeg_scan", reference.encode_scan)
        monkeypatch.setattr(kernels, "decode_jpeg_scan", reference.decode_scan)
    for image, (data, decoded) in zip(images, fused):
        serial_data = encode_jpeg(image, quality=85, subsampling=subsampling)
        assert data == serial_data
        serial_decoded = decode_jpeg(serial_data)
        assert decoded.pixels.tobytes() == serial_decoded.pixels.tobytes()


@pytest.mark.parametrize(
    "options",
    [
        JpegDecodeOptions(),
        JpegDecodeOptions(idct="fixed11", rounding="truncate", chroma_upsample="nearest"),
        JpegDecodeOptions(idct="fixed8"),
    ],
    ids=["default", "fixed11_truncate_nearest", "fixed8"],
)
def test_decode_options_respected(options):
    images = _images([(32, 40)])
    fused = jpeg_roundtrip_batch(images, quality=70, options=options)
    data, decoded = fused[0]
    serial = decode_jpeg(encode_jpeg(images[0], quality=70), options)
    assert decoded.pixels.tobytes() == serial.pixels.tobytes()


def test_odd_geometry():
    """Non-multiple-of-16 dimensions exercise padding and crop."""
    images = _images([(37, 53), (37, 53)], seed=3)
    for data, decoded in jpeg_roundtrip_batch(images, quality=85):
        serial = decode_jpeg(data)
        assert decoded.pixels.shape == (37, 53, 3)
        assert decoded.pixels.tobytes() == serial.pixels.tobytes()


def test_mixed_shapes_fall_back():
    """A batch of unequal shapes loops the serial path per item."""
    images = _images([(32, 32), (48, 32)], seed=5)
    fused = jpeg_roundtrip_batch(images, quality=85)
    for image, (data, decoded) in zip(images, fused):
        assert data == encode_jpeg(image, quality=85)
        assert decoded.pixels.tobytes() == decode_jpeg(data).pixels.tobytes()


def test_quality_sweep():
    images = _images([(32, 32)], seed=7)
    sizes = []
    for quality in (30, 60, 90):
        (data, decoded), = jpeg_roundtrip_batch(images, quality=quality)
        assert data == encode_jpeg(images[0], quality=quality)
        sizes.append(len(data))
    assert sizes[0] < sizes[-1]  # higher quality -> bigger file


def test_empty_batch():
    assert jpeg_roundtrip_batch([]) == []
