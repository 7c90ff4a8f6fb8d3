"""Golden byte-hash regression for every codec, checked against the oracle.

A fixed seeded image is encoded with each codec; the SHA-256 of the
byte stream is pinned in ``tests/data/golden_codecs.json``. The same file
pins the SHA-256 of ``decode_jpeg``'s 8-bit pixels for two geometries,
both subsampling modes and three decoder option sets, and the fused
``jpeg_roundtrip_batch`` must reproduce those pixel hashes too. This is the
tripwire for silent encode drift: a vectorization changing one bit of
output fails here before it can shift the paper's reproduced numbers
(capture hashes feed the instability analysis directly).

Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/kernels/test_golden.py --regen-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import kernels
from repro.codecs.heif import encode_heif
from repro.codecs.jpeg import (
    JpegDecodeOptions,
    decode_jpeg,
    encode_jpeg,
    jpeg_roundtrip_batch,
)
from repro.codecs.png import encode_png
from repro.codecs.webp import encode_webp
from repro.devices.os_sim import DECODER_FAMILIES
from repro.imaging.image import ImageBuffer
from tests.kernels import reference

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_codecs.json"


def _test_image(height: int = 48, width: int = 40) -> ImageBuffer:
    """A deterministic image with gradients, noise, and flat runs.

    The default 48x40 is the image every encoder hash is pinned on;
    37x53 is the odd geometry (neither side a multiple of 8 or 16) that
    exercises edge padding and the decoder's crop.
    """
    seed = 2024 if (height, width) == (48, 40) else (2024, height, width)
    rng = np.random.default_rng(seed)
    base = np.add.outer(np.arange(height) * 2, np.arange(width) * 3)[..., None]
    rgb = base + rng.integers(0, 32, size=(height, width, 3))
    rgb[10:20, 10:20] = 128  # flat patch: zero-run / EOB heavy
    return ImageBuffer.from_uint8((rgb % 256).astype(np.uint8))


def _encodings() -> dict:
    image = _test_image()
    return {
        "jpeg_q85_420": encode_jpeg(image, quality=85, subsampling="4:2:0"),
        "jpeg_q30_444": encode_jpeg(image, quality=30, subsampling="4:4:4"),
        "png": encode_png(image),
        "webp_q75": encode_webp(image, quality=75),
        "heif_q80": encode_heif(image, quality=80),
    }


#: Decoder option sets the decoded-pixel hashes are pinned under: the
#: paper's two OS decoder camps plus the other IDCT / rounding /
#: upsampling corner.
DECODE_OPTIONS = {
    "mainline": DECODER_FAMILIES["mainline"].jpeg_options,
    "vendor_neon": DECODER_FAMILIES["vendor_neon"].jpeg_options,
    "fixed11_truncate_nearest": JpegDecodeOptions(
        idct="fixed11", rounding="truncate", chroma_upsample="nearest"
    ),
}

DECODE_GEOMETRIES = ((48, 40), (37, 53))
DECODE_SUBSAMPLINGS = {"420": "4:2:0", "444": "4:4:4"}


def _decode_cases():
    """``(name, image, subsampling, options)`` for every pinned decode."""
    for height, width in DECODE_GEOMETRIES:
        image = _test_image(height, width)
        for tag, subsampling in DECODE_SUBSAMPLINGS.items():
            for family, options in DECODE_OPTIONS.items():
                name = f"decode_jpeg_{height}x{width}_q85_{tag}_{family}"
                yield name, image, subsampling, options


def _pixel_digest(image: ImageBuffer) -> str:
    return hashlib.sha256(image.to_uint8().tobytes()).hexdigest()


def _decoded_digests() -> dict:
    """SHA-256 of ``decode_jpeg`` pixels for every pinned decode case."""
    return {
        name: _pixel_digest(
            decode_jpeg(encode_jpeg(image, quality=85, subsampling=subsampling), options)
        )
        for name, image, subsampling, options in _decode_cases()
    }


def test_backends_agree_per_codec(monkeypatch):
    """Every codec's bytes and the pinned decodes are the same when the
    kernels' entropy stage is swapped for the scalar oracle."""
    fast = _encodings()
    fast_decoded = _decoded_digests()
    monkeypatch.setattr(kernels, "encode_jpeg_scan", reference.encode_scan)
    monkeypatch.setattr(kernels, "decode_jpeg_scan", reference.decode_scan)
    monkeypatch.setattr(kernels, "png_filter_scanlines", reference.png_filter_scanlines)
    monkeypatch.setattr(kernels, "pack_coefficients", reference.pack_coefficients)
    monkeypatch.setattr(kernels, "entropy_deflate", reference.entropy_deflate)
    ref = _encodings()
    for name in ref:
        assert ref[name] == fast[name], f"{name}: kernels diverge from the oracle"
    assert _decoded_digests() == fast_decoded


def test_golden_codec_hashes(regen_golden):
    digests = {
        name: hashlib.sha256(data).hexdigest()
        for name, data in sorted(_encodings().items())
    }
    digests.update(_decoded_digests())
    if regen_golden:
        GOLDEN_PATH.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden codec hashes regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert digests == golden


def test_fused_roundtrip_matches_decode_goldens():
    """``jpeg_roundtrip_batch`` pixels carry the pinned ``decode_jpeg`` hashes."""
    golden = json.loads(GOLDEN_PATH.read_text())
    for name, image, subsampling, options in _decode_cases():
        ((_data, decoded),) = jpeg_roundtrip_batch(
            [image], quality=85, subsampling=subsampling, options=options
        )
        assert _pixel_digest(decoded) == golden[name], name
