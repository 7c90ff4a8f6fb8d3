"""Tests for the Firebase (OS/processor) experiment simulation."""

import pytest

from repro.lab.firebase import FirebaseTestLab, build_photo_set
from tests.conftest import environments


@pytest.fixture(scope="module")
def lab(tiny_model):
    return FirebaseTestLab(model=tiny_model, seed=0)


class TestPhotoSet:
    def test_fixed_photo_set_is_deterministic(self):
        a = build_photo_set(num_photos=5)
        b = build_photo_set(num_photos=5)
        assert [p["bytes"] for p in a] == [p["bytes"] for p in b]

    def test_photo_set_size(self):
        photos = build_photo_set(num_photos=10)
        assert len(photos) == 10

    def test_photo_formats(self):
        from repro.codecs import sniff_format

        jpegs = build_photo_set(num_photos=5, image_format="jpeg")
        pngs = build_photo_set(num_photos=5, image_format="png")
        assert all(sniff_format(p["bytes"]) == "jpeg" for p in jpegs)
        assert all(sniff_format(p["bytes"]) == "png" for p in pngs)


class TestRun:
    def test_jpeg_produces_two_hash_camps(self, lab):
        """The paper's §7 diagnostic: Huawei+Xiaomi hash apart from the rest."""
        out = lab.run(num_photos=8, image_format="jpeg")
        groups = out.hash_groups()
        assert len(groups) == 2
        camps = sorted(groups.values(), key=len)
        assert camps[0] == ["huawei_mate_rs", "xiaomi_mi_8_pro"]
        assert camps[1] == ["pixel_2", "samsung_galaxy_note8", "sony_xz3"]

    def test_png_single_hash_camp_zero_instability(self, lab):
        """PNG decodes bit-identically everywhere -> no instability at all."""
        out = lab.run(num_photos=8, image_format="png")
        assert len(out.hash_groups()) == 1
        assert out.instability() == 0.0

    def test_jpeg_instability_bounded_by_decoder_difference(self, lab):
        out = lab.run(num_photos=8, image_format="jpeg")
        # Decoder deltas are tiny; instability must be far below the
        # cross-phone end-to-end level.
        assert out.instability() <= 0.25

    def test_records_cover_all_devices(self, lab):
        out = lab.run(num_photos=4)
        assert len(out.result) == 4 * 5
        assert len(environments(out.result)) == 5
