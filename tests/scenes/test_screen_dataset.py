"""Tests for the screen simulation and dataset builder."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.imaging import ImageBuffer
from repro.scenes.dataset import build_dataset
from repro.scenes.objects import ALL_CLASSES, TARGET_CLASSES
from repro.scenes.screen import Screen, ScreenProfile


class TestScreen:
    def test_display_deterministic(self):
        screen = Screen(seed=1)
        img = ImageBuffer.full(32, 32, 0.5)
        a = screen.display(img)
        b = screen.display(img)
        assert np.array_equal(a.pixels, b.pixels)

    def test_different_panels_differ(self):
        img = ImageBuffer.full(32, 32, 0.5)
        a = Screen(seed=1).display(img)
        b = Screen(seed=2).display(img)
        assert not np.array_equal(a.pixels, b.pixels)

    def test_gamma_darkens_midtones(self):
        profile = ScreenProfile(
            backlight_variation=0.0, pixel_grid_contrast=0.0, glare=0.0
        )
        out = Screen(profile).display(ImageBuffer.full(8, 8, 0.5))
        # 0.5 ^ 2.2 ~ 0.218 in linear light.
        assert out.pixels.mean() == pytest.approx(0.5**2.2, abs=0.01)

    def test_glare_lifts_black(self):
        profile = ScreenProfile(glare=0.02, backlight_variation=0.0, pixel_grid_contrast=0.0)
        out = Screen(profile).display(ImageBuffer.full(8, 8, 0.0))
        assert out.pixels.min() >= 0.019

    def test_pixel_grid_texture(self):
        profile = ScreenProfile(
            backlight_variation=0.0, pixel_grid_contrast=0.05, glare=0.0
        )
        out = Screen(profile).display(ImageBuffer.full(8, 8, 1.0))
        assert out.pixels[0, 0, 0] > out.pixels[1, 0, 0]

    def test_white_point(self):
        profile = ScreenProfile(
            white_point=(0.8, 1.0, 1.0),
            backlight_variation=0.0,
            pixel_grid_contrast=0.0,
            glare=0.0,
        )
        out = Screen(profile).display(ImageBuffer.full(8, 8, 1.0))
        assert out.pixels[..., 0].mean() < out.pixels[..., 1].mean()


class TestBuildDataset:
    def test_default_uses_target_classes(self):
        ds = build_dataset(per_class=2, seed=0)
        assert ds.classes == TARGET_CLASSES
        assert len(ds) == 10

    def test_distractors_included_on_request(self):
        ds = build_dataset(per_class=1, include_distractors=True, seed=0)
        assert ds.classes == ALL_CLASSES
        assert len(ds) == 8

    def test_scenes_per_object(self):
        ds = build_dataset(per_class=2, scenes_per_object=3, seed=0)
        assert len(ds) == 2 * 3 * 5
        # All scenes of one object share its spec.
        by_object = {}
        for item in ds:
            by_object.setdefault(item.object_id, []).append(item)
        assert all(len(v) == 3 for v in by_object.values())

    def test_labels_match_class_indices(self):
        ds = build_dataset(per_class=1, include_distractors=True, seed=0)
        for item in ds:
            assert ALL_CLASSES[item.label] == item.class_name

    def test_deterministic(self):
        a = build_dataset(per_class=2, seed=9)
        b = build_dataset(per_class=2, seed=9)
        assert [i.object_id for i in a] == [i.object_id for i in b]
        assert a[0].scene.render(16, 16) == b[0].scene.render(16, 16)

    def test_identical_in_a_fresh_interpreter(self):
        """The dataset depends on its arguments alone, never on process
        state such as the pid or the hash seed."""
        script = (
            "from repro.scenes.dataset import build_dataset\n"
            "ds = build_dataset(per_class=2, seed=9)\n"
            "print(repr([(i.object_id, i.label, i.scene) for i in ds]))\n"
        )
        src = str(Path(__file__).resolve().parents[2] / "src")
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=src),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        ds = build_dataset(per_class=2, seed=9)
        assert fresh.strip() == repr([(i.object_id, i.label, i.scene) for i in ds])

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            build_dataset(per_class=0)
        with pytest.raises(ValueError):
            build_dataset(per_class=1, scenes_per_object=0)
        with pytest.raises(ValueError):
            build_dataset(per_class=1, classes=["flying_carpet"])

    def test_split_by_object(self):
        ds = build_dataset(per_class=4, scenes_per_object=2, seed=0)
        train, test = ds.split(0.5, seed=1)
        train_objects = {i.object_id for i in train}
        test_objects = {i.object_id for i in test}
        assert not train_objects & test_objects
        assert len(train) + len(test) == len(ds)

    def test_split_rejects_bad_fraction(self):
        ds = build_dataset(per_class=2, seed=0)
        with pytest.raises(ValueError):
            ds.split(1.5)

    def test_per_class_counts(self):
        ds = build_dataset(per_class=3, seed=0)
        counts = ds.per_class_counts()
        assert all(v == 3 for v in counts.values())
