"""A batch of N captures is bit-identical to N captures of one.

``BayerSensor.capture_batch(radiances, rngs)`` takes one radiance buffer
per generator, runs the optics/CFA front end once per distinct buffer
and fans the noise out per generator; frame ``i`` must depend on
``radiances[i]`` and ``rngs[i]`` alone — same mosaic bytes, same
white-balance gains as capturing it by itself — for every fleet profile,
whether the batch repeats one scene or mixes several. The noise model's
``apply_batch`` carries the same contract at the mosaic level, and a
golden raw capture stays pinned when it rides in a larger batch.
"""

import json

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer
from repro.imaging.ops import affine_warp
from repro.runner.units import raw_to_payload
from repro.sensor.optics import LensModel
from tests.runner.test_golden_captures import GOLDEN_PATH, golden_units, payload_digest


def _smooth_field(seed, size):
    from scipy import ndimage

    rng = np.random.default_rng(seed)
    field = ndimage.gaussian_filter(rng.random((size, size, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    return ImageBuffer(field.astype(np.float32))


@pytest.fixture(scope="module")
def radiance():
    return _smooth_field(21, 48)


def _assert_raw_equal(one, many):
    assert one.mosaic.dtype == many.mosaic.dtype
    assert one.mosaic.tobytes() == many.mosaic.tobytes()
    assert one.pattern == many.pattern
    assert one.black_level == many.black_level
    assert one.white_level == many.white_level
    assert one.wb_gains == many.wb_gains
    assert one.metadata == many.metadata


@pytest.mark.parametrize("profile", capture_fleet(), ids=lambda p: p.name)
def test_capture_batch_matches_serial(profile, radiance):
    """Four repeats in one batch == each repeat captured alone."""
    phone = Phone(profile)
    singles = [
        phone.capture_raw_batch([radiance], [np.random.default_rng((5, r))])[0]
        for r in range(4)
    ]
    batch = phone.capture_raw_batch(
        [radiance] * 4, [np.random.default_rng((5, r)) for r in range(4)]
    )
    assert len(batch) == len(singles)
    for one, many in zip(singles, batch):
        _assert_raw_equal(one, many)
    # The single-frame entry point is the same pass.
    alone = phone.capture_raw(radiance, np.random.default_rng((5, 2)))
    assert alone.mosaic.tobytes() == batch[2].mosaic.tobytes()


@pytest.mark.parametrize("profile", capture_fleet(), ids=lambda p: p.name)
def test_mixed_batch_matches_serial(profile, radiance):
    """A batch [A, B, A, C] of three scenes == each frame captured alone.

    B is a different size from A, and C is an equal copy of A in a
    distinct buffer object, so the front end runs per buffer object and
    the per-frame gains follow each frame's own scene.
    """
    phone = Phone(profile)
    b = _smooth_field(22, 64)
    c = ImageBuffer(radiance.pixels.copy())
    radiances = [radiance, b, radiance, c]
    rngs = [np.random.default_rng((8, r)) for r in range(4)]
    batch = phone.capture_raw_batch(radiances, rngs)
    assert len(batch) == 4
    for r, (scene, many) in enumerate(zip(radiances, batch)):
        one = phone.capture_raw(scene, np.random.default_rng((8, r)))
        _assert_raw_equal(one, many)
    assert batch[0].wb_gains != batch[1].wb_gains


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
    radiance = ImageBuffer(unit.radiance)
    raws = Phone(profile).capture_raw_batch([radiance] * 3, rngs)
    assert payload_digest(raw_to_payload(raws[1])) == golden


def test_capture_batch_empty():
    phone = Phone(capture_fleet()[0])
    assert phone.capture_raw_batch([], []) == []


def test_capture_batch_rejects_mismatched_lengths(radiance):
    phone = Phone(capture_fleet()[0])
    with pytest.raises(ValueError, match="generators"):
        phone.capture_raw_batch([radiance], [])


def test_noise_apply_batch_matches_serial():
    """Five noise draws in one batch == each drawn alone, per signal."""
    for profile in capture_fleet():
        noise = profile.sensor.noise
        rng = np.random.default_rng(3)
        signals = rng.random((5, 32, 32)).astype(np.float32)
        signals[3] = signals[0]  # a repeat rides with distinct signals
        singles = np.stack(
            [
                noise.apply_batch(signals[r : r + 1], [np.random.default_rng((9, r))])[0]
                for r in range(5)
            ]
        )
        batch = noise.apply_batch(
            signals, [np.random.default_rng((9, r)) for r in range(5)]
        )
        assert batch.dtype == np.float32
        assert singles.tobytes() == batch.tobytes()
        alone = noise.apply(signals[3], np.random.default_rng((9, 3)))
        assert alone.tobytes() == batch[3].tobytes()


def test_noise_apply_batch_empty():
    noise = capture_fleet()[0].sensor.noise
    out = noise.apply_batch(np.zeros((0, 8, 8), np.float32), [])
    assert out.shape == (0, 8, 8) and out.dtype == np.float32


def test_green_warp_is_an_exact_identity():
    """The unit-scale warp the lens skips for green returns its input.

    ``LensModel.apply`` passes the green plane through instead of
    warping it at scale 1.0; that is output-neutral only because the
    identity warp is bit-exact on float32 planes of any shape.
    """
    rng = np.random.default_rng(11)
    for _ in range(300):
        h, w = (int(v) for v in rng.integers(2, 130, size=2))
        scale = float(rng.choice([1.0, 10.0, 1e-3]))
        plane = (rng.random((h, w, 3)) * scale).astype(np.float32)[..., 1]
        center = np.array([(h - 1) / 2.0, (w - 1) / 2.0])
        matrix = np.eye(2) / 1.0
        warped = affine_warp(plane, matrix, offset=center - matrix @ center, order=1)
        assert warped.dtype == np.float32
        assert warped.tobytes() == np.ascontiguousarray(plane).tobytes()


def test_lens_with_aberration_keeps_green_untouched():
    """Chromatic aberration moves red and blue only."""
    rng = np.random.default_rng(12)
    image = rng.random((40, 40, 3)).astype(np.float32)
    lens = LensModel(vignetting=0.0, chromatic_aberration=0.01, blur_sigma=0.0)
    out = lens.apply(image)
    assert out[..., 1].tobytes() == np.ascontiguousarray(image[..., 1]).tobytes()
    assert not np.array_equal(out[..., 0], image[..., 0])
