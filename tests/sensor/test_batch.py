"""A batch of N captures is bit-identical to N captures of one.

``BayerSensor.capture_batch(radiance, rngs)`` shares the optics/CFA front
end across repeats and fans the noise out per generator; frame ``i`` must
depend on ``rngs[i]`` alone — same mosaic bytes, same white-balance gains
as capturing it by itself — for every fleet profile. The noise model's
``apply_batch`` carries the same contract at the mosaic level, and a
golden raw capture stays pinned when it rides in a larger batch.
"""

import json

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer
from repro.runner.units import raw_to_payload
from tests.runner.test_golden_captures import GOLDEN_PATH, golden_units, payload_digest


@pytest.fixture(scope="module")
def radiance():
    from scipy import ndimage

    rng = np.random.default_rng(21)
    field = ndimage.gaussian_filter(rng.random((48, 48, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return ImageBuffer(field.astype(np.float32))


@pytest.mark.parametrize("profile", capture_fleet(), ids=lambda p: p.name)
def test_capture_batch_matches_serial(profile, radiance):
    """Four repeats in one batch == each repeat captured alone."""
    phone = Phone(profile)
    singles = [
        phone.capture_raw_batch(radiance, [np.random.default_rng((5, r))])[0]
        for r in range(4)
    ]
    batch = phone.capture_raw_batch(
        radiance, [np.random.default_rng((5, r)) for r in range(4)]
    )
    assert len(batch) == len(singles)
    for one, many in zip(singles, batch):
        assert one.mosaic.dtype == many.mosaic.dtype
        assert one.mosaic.tobytes() == many.mosaic.tobytes()
        assert one.pattern == many.pattern
        assert one.black_level == many.black_level
        assert one.white_level == many.white_level
        assert one.wb_gains == many.wb_gains
    # The single-frame entry point is the same pass.
    alone = phone.capture_raw(radiance, np.random.default_rng((5, 2)))
    assert alone.mosaic.tobytes() == batch[2].mosaic.tobytes()


@pytest.mark.parametrize("profile", capture_fleet(), ids=lambda p: p.name)
def test_golden_raw_inside_a_batch(profile):
    """The pinned ``raw`` capture, shot as item 1 of 3, keeps its hash."""
    unit = golden_units()[f"raw/{profile.name}"]
    golden = json.loads(GOLDEN_PATH.read_text())[f"raw/{profile.name}"]
    rngs = [
        np.random.default_rng((6, 0)),
        np.random.default_rng(tuple(unit.entropy)),
        np.random.default_rng((6, 1)),
    ]
    raws = Phone(profile).capture_raw_batch(ImageBuffer(unit.radiance), rngs)
    assert payload_digest(raw_to_payload(raws[1])) == golden


def test_capture_batch_empty(radiance):
    phone = Phone(capture_fleet()[0])
    assert phone.capture_raw_batch(radiance, []) == []


def test_noise_apply_batch_matches_serial():
    """Five noise draws in one batch == each drawn alone."""
    for profile in capture_fleet():
        noise = profile.sensor.noise
        rng = np.random.default_rng(3)
        signal = rng.random((32, 32)).astype(np.float32)
        singles = np.stack(
            [
                noise.apply_batch(signal, [np.random.default_rng((9, r))])[0]
                for r in range(5)
            ]
        )
        batch = noise.apply_batch(
            signal, [np.random.default_rng((9, r)) for r in range(5)]
        )
        assert batch.dtype == np.float32
        assert singles.tobytes() == batch.tobytes()
        alone = noise.apply(signal, np.random.default_rng((9, 3)))
        assert alone.tobytes() == batch[3].tobytes()


def test_noise_apply_batch_empty():
    noise = capture_fleet()[0].sensor.noise
    out = noise.apply_batch(np.zeros((8, 8), np.float32), [])
    assert out.shape == (0, 8, 8) and out.dtype == np.float32
