"""A batch of N develops bit-identically to N batches of one.

``ISPPipeline.process_batch`` stacks the raw mosaics on a leading batch
axis and runs every stage's ``process_batch``; item ``i`` must depend on
``raws[i]`` alone, whatever else shares the batch — including raws with
different calibration or Bayer pattern. Every named ISP's golden
``develop`` output stays pinned when it rides in a larger batch.
"""

import json

import numpy as np
import pytest

from repro.devices import capture_fleet
from repro.devices.phone import Phone
from repro.imaging.image import ImageBuffer, RawImage
from repro.isp.pipeline import ISPPipeline
from repro.isp.profiles import available_isps, build_isp
from repro.isp.stages import ISPStage
from repro.runner.units import payload_to_raw
from tests.runner.test_golden_captures import GOLDEN_PATH, golden_units, payload_digest


@pytest.fixture(scope="module")
def raws_by_profile():
    """Four repeat captures per fleet profile (distinct noise draws)."""
    from scipy import ndimage

    rng = np.random.default_rng(17)
    field = ndimage.gaussian_filter(rng.random((48, 48, 3)), (3, 3, 0))
    field = (field - field.min()) / (field.max() - field.min())
    radiance = ImageBuffer(field.astype(np.float32))
    out = {}
    for profile in capture_fleet():
        phone = Phone(profile)
        out[profile.name] = (
            phone,
            phone.capture_raw_batch(
                [radiance] * 4, [np.random.default_rng((4, r)) for r in range(4)]
            ),
        )
    return out


def _assert_same(singles, batch):
    assert len(batch) == len(singles)
    for one, many in zip(singles, batch):
        assert one.pixels.dtype == many.pixels.dtype
        assert one.pixels.tobytes() == many.pixels.tobytes()


@pytest.mark.parametrize("name", [p.name for p in capture_fleet()])
def test_process_batch_matches_serial(name, raws_by_profile):
    """Four raws in one batch == each developed alone, in any order."""
    phone, raws = raws_by_profile[name]
    singles = [phone.develop_batch([raw])[0] for raw in raws]
    _assert_same(singles, phone.develop_batch(raws))
    _assert_same(singles[::-1], phone.develop_batch(raws[::-1]))
    _assert_same(singles[:1], [phone.develop(raws[0])])


@pytest.mark.parametrize("isp", available_isps())
def test_golden_develop_inside_a_batch(isp, raws_by_profile):
    """The pinned ``develop`` output, developed as item 1 of 3, keeps its hash."""
    unit = golden_units()[f"develop/{isp}/none"]
    golden = json.loads(GOLDEN_PATH.read_text())[f"develop/{isp}/none"]
    _, others = raws_by_profile[capture_fleet()[0].name]
    raws = [others[0], payload_to_raw(unit.raw), others[1]]
    image = build_isp(isp).process_batch(raws)[1]
    payload = {"pixels": image.pixels, "encoded_size": np.int64(0)}
    assert payload_digest(payload) == golden


def test_process_batch_empty(raws_by_profile):
    phone, _ = raws_by_profile[capture_fleet()[0].name]
    assert phone.isp.process_batch([]) == []


class _NegateStage(ISPStage):
    """A custom stage: implements ``process_batch`` only."""

    name = "negate"

    def process_batch(self, state):
        state.rgb = np.float32(1.0) - state.require_rgb()
        return state


def test_custom_stage_implements_process_batch(raws_by_profile):
    phone, raws = raws_by_profile[capture_fleet()[0].name]
    pipeline = ISPPipeline(
        list(phone.isp.stages) + [_NegateStage()], name="custom_with_negate"
    )
    batch = pipeline.process_batch(raws)
    _assert_same([pipeline.process(raw) for raw in raws], batch)
    plain = phone.develop_batch(raws)
    for negated, image in zip(batch, plain):
        assert np.array_equal(negated.pixels, np.float32(1.0) - image.pixels)


def _raws(**per_item):
    rng = np.random.default_rng(2)
    fields = dict(pattern="RGGB", black_level=64, white_level=1023)
    out = []
    for i in range(2):
        item = dict(fields, **{k: v[i] for k, v in per_item.items()})
        out.append(
            RawImage(
                mosaic=rng.random((16, 16)).astype(np.float32),
                wb_gains=(2.0, 1.0, 1.5),
                **item,
            )
        )
    return out


def test_mixed_raw_geometry_falls_back():
    """Batches mixing black/white levels still develop per item."""
    phone = Phone(capture_fleet()[0])
    raws = _raws(black_level=(64, 32), white_level=(1023, 4095))
    _assert_same([phone.isp.process(raw) for raw in raws], phone.isp.process_batch(raws))


@pytest.mark.parametrize("isp", ["samsung_s10", "imagemagick"])
def test_mixed_bayer_patterns_develop_per_item(isp):
    """Malvar and bilinear demosaics honour each item's own CFA pattern."""
    pipeline = build_isp(isp, 16, 16)
    raws = _raws(pattern=("RGGB", "GBRG"))
    _assert_same([pipeline.process(raw) for raw in raws], pipeline.process_batch(raws))
