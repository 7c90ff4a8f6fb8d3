"""Fused JPEG files decode to the pixels the fused pass reconstructs.

``jpeg_roundtrip_batch`` never parses the files it emits: it rebuilds
each item's decoded pixels from the encoder's own quantized blocks, and
the capture path (the executor's fused groups, hence serving) returns
those pixels without any decode. Here ``decode_jpeg`` parses every
emitted file for real and must reproduce them byte for byte, on device
captures from every capture-fleet profile and a few generated ones, so an
encoder bitstream bug cannot hide behind the reconstruction.
"""

import numpy as np
import pytest

from repro.codecs.jpeg import decode_jpeg, jpeg_roundtrip_batch
from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.fleet.population import generate_devices
from repro.imaging.image import ImageBuffer
from repro.runner.seeds import unit_entropy

PROFILES = list(capture_fleet()) + [d.profile for d in generate_devices(3, seed=4)]


@pytest.fixture(scope="module")
def radiance():
    from scipy import ndimage

    rng = np.random.default_rng(17)
    field = ndimage.gaussian_filter(rng.random((64, 64, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return ImageBuffer(field.astype(np.float32))


@pytest.mark.parametrize("n", [1, 3])
@pytest.mark.parametrize("quality", [50, 85, 95])
@pytest.mark.parametrize("profile", PROFILES, ids=lambda p: p.name)
def test_fused_pixels_equal_a_real_decode(profile, quality, n, radiance):
    phone = Phone(profile)
    rngs = [
        np.random.default_rng(unit_entropy(0, profile.name, "decode_verify", r))
        for r in range(n)
    ]
    images = phone.develop_batch(phone.capture_raw_batch([radiance] * n, rngs))
    pairs = jpeg_roundtrip_batch(images, quality=quality)
    assert len(pairs) == n
    for data, fused in pairs:
        decoded = decode_jpeg(data)
        assert decoded.pixels.dtype == fused.pixels.dtype
        assert decoded.pixels.shape == fused.pixels.shape
        assert decoded.pixels.tobytes() == fused.pixels.tobytes()
