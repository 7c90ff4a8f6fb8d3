"""Tests for device profiles, phones, OS decoders, and runtimes."""

import numpy as np
import pytest

from repro.codecs import sniff_format
from repro.devices import (
    DECODER_FAMILIES,
    DeviceRuntime,
    Phone,
    Prediction,
    capture_fleet,
    content_hash,
    firebase_fleet,
)
from repro.imaging import ImageBuffer


@pytest.fixture(scope="module")
def radiance():
    rng = np.random.default_rng(0)
    from scipy import ndimage

    img = ndimage.gaussian_filter(rng.random((96, 96, 3)), (4, 4, 0))
    img = (img - img.min()) / (img.max() - img.min())
    return ImageBuffer(img.astype(np.float32))


class TestFleets:
    def test_capture_fleet_matches_table1(self):
        fleet = capture_fleet()
        assert len(fleet) == 5
        names = {p.name for p in fleet}
        assert "samsung_galaxy_s10" in names and "iphone_xr" in names
        codes = {p.model_code for p in fleet}
        assert {"SM-G973U1", "K425", "XT1670", "A1984"} <= codes

    def test_raw_support_matches_paper(self):
        """Only the Galaxy S10 and iPhone XR shot raw in the paper."""
        raw_capable = {p.name for p in capture_fleet() if p.supports_raw}
        assert raw_capable == {"samsung_galaxy_s10", "iphone_xr"}

    def test_firebase_fleet_matches_table5(self):
        fleet = firebase_fleet()
        assert len(fleet) == 5
        socs = {p.soc for p in fleet}
        assert any("KIRIN" in s for s in socs)
        vendor_decoder = {
            p.name for p in fleet if p.os_decoder.name == "vendor_neon"
        }
        assert vendor_decoder == {"huawei_mate_rs", "xiaomi_mi_8_pro"}

    def test_iphone_saves_heif(self):
        iphone = next(p for p in capture_fleet() if p.name == "iphone_xr")
        assert iphone.save_format == "heif"


class TestPhone:
    def test_photograph_produces_vendor_format(self, radiance):
        rng = np.random.default_rng(0)
        for profile in capture_fleet():
            data = Phone(profile).photograph(radiance, rng)
            assert sniff_format(data) == profile.save_format

    def test_format_override(self, radiance):
        iphone = Phone(next(p for p in capture_fleet() if p.name == "iphone_xr"))
        data = iphone.photograph(radiance, np.random.default_rng(0), format_override="jpeg")
        assert sniff_format(data) == "jpeg"

    def test_raw_path_gated(self, radiance):
        lg = Phone(next(p for p in capture_fleet() if p.name == "lg_k10_lte"))
        with pytest.raises(RuntimeError, match="raw"):
            lg.photograph_raw(radiance, np.random.default_rng(0))

    def test_raw_roundtrip(self, radiance):
        from repro.codecs import decode_dng

        s10 = Phone(next(p for p in capture_fleet() if p.supports_raw))
        data = s10.photograph_raw(radiance, np.random.default_rng(0))
        raw = decode_dng(data)
        assert raw.mosaic.shape == (96, 96)

    def test_repeat_photographs_differ(self, radiance):
        """Fig. 1: back-to-back shots are nearly but not exactly equal."""
        phone = Phone(capture_fleet()[0])
        rng = np.random.default_rng(0)
        a = phone.photograph(radiance, rng)
        b = phone.photograph(radiance, rng)
        assert a != b

    def test_same_rng_reproduces_capture(self, radiance):
        phone = Phone(capture_fleet()[0])
        a = phone.photograph(radiance, np.random.default_rng(42))
        b = phone.photograph(radiance, np.random.default_rng(42))
        assert a == b

    def test_different_phones_different_photos(self, radiance):
        rng_a = np.random.default_rng(1)
        rng_b = np.random.default_rng(1)
        fleet = capture_fleet()
        a = Phone(fleet[0]).photograph(radiance, rng_a)
        b = Phone(fleet[2]).photograph(radiance, rng_b)
        assert a != b


class TestOSDecoders:
    def _jpeg(self, radiance):
        from repro.codecs import encode_jpeg

        return encode_jpeg(radiance, quality=85)

    def test_families_decode_same_png_identically(self, radiance):
        from repro.codecs import encode_png

        data = encode_png(radiance)
        imgs = [fam.load(data) for fam in DECODER_FAMILIES.values()]
        assert content_hash(imgs[0]) == content_hash(imgs[1])

    def test_families_decode_jpeg_differently(self, radiance):
        """The §7 mechanism: same bytes, two pixel-buffer hash camps."""
        data = self._jpeg(radiance)
        mainline = DECODER_FAMILIES["mainline"].load(data)
        vendor = DECODER_FAMILIES["vendor_neon"].load(data)
        assert content_hash(mainline) != content_hash(vendor)
        # The difference is tiny — a couple of code values at most.
        diff = np.abs(
            mainline.to_uint8().astype(int) - vendor.to_uint8().astype(int)
        )
        assert diff.max() <= 4

    def test_loader_rejects_unsupported_format(self):
        with pytest.raises(ValueError):
            DECODER_FAMILIES["mainline"].load(b"RPDN" + b"\x00" * 20)

    def test_decode_is_deterministic(self, radiance):
        data = self._jpeg(radiance)
        fam = DECODER_FAMILIES["vendor_neon"]
        assert content_hash(fam.load(data)) == content_hash(fam.load(data))


class TestRuntime:
    def test_prediction_structure(self, tiny_model, radiance):
        runtime = DeviceRuntime(tiny_model)
        pred = runtime.predict_one(radiance)
        assert len(pred.ranking) == 8
        assert pred.top1 == pred.ranking[0]
        assert sum(pred.probabilities) == pytest.approx(1.0, abs=1e-5)
        assert pred.confidence == max(pred.probabilities)
        assert pred.topk(3) == pred.ranking[:3]

    def test_ties_rank_the_lower_class_first(self):
        """Tied probabilities never take their order from NumPy's SIMD sort.

        The default ``argsort`` kind orders ties differently under
        AVX2/AVX-512 dispatch than on a baseline x86-64 host.
        """
        rng = np.random.default_rng(0)
        rows = rng.integers(0, 3, size=(2000, 8)).astype(np.float32) / 4
        for row in rows:
            expected = tuple(sorted(range(8), key=lambda i: (-row[i], i)))
            assert Prediction.from_probabilities(row).ranking == expected

    def test_deterministic_across_calls(self, tiny_model, radiance):
        runtime = DeviceRuntime(tiny_model)
        a = runtime.predict_one(radiance)
        b = runtime.predict_one(radiance)
        assert a.probabilities == b.probabilities
