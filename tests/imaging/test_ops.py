"""Tests for spatial image operations."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.imaging import ops


class TestBilinearResize:
    def test_identity_when_same_size(self):
        img = np.random.default_rng(0).random((5, 7, 3)).astype(np.float32)
        out = ops.bilinear_resize(img, 5, 7)
        assert np.array_equal(out, img)

    def test_constant_image_stays_constant(self):
        img = np.full((8, 8), 0.3, dtype=np.float32)
        out = ops.bilinear_resize(img, 3, 13)
        assert np.allclose(out, 0.3, atol=1e-6)

    def test_preserves_mean_roughly(self):
        rng = np.random.default_rng(42)
        img = rng.random((32, 32)).astype(np.float32)
        out = ops.bilinear_resize(img, 16, 16)
        assert abs(out.mean() - img.mean()) < 0.02

    def test_upscale_shape(self):
        out = ops.bilinear_resize(np.zeros((4, 4, 3), dtype=np.float32), 9, 11)
        assert out.shape == (9, 11, 3)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ops.bilinear_resize(np.zeros((4, 4)), 0, 4)

    @given(st.integers(1, 20), st.integers(1, 20))
    @settings(max_examples=25, deadline=None)
    def test_output_within_input_range(self, h, w):
        rng = np.random.default_rng(h * 100 + w)
        img = rng.random((6, 6)).astype(np.float32)
        out = ops.bilinear_resize(img, h, w)
        assert out.min() >= img.min() - 1e-6
        assert out.max() <= img.max() + 1e-6


class TestBlurs:
    def test_gaussian_kernel_normalized(self):
        k = ops.gaussian_kernel1d(1.5)
        assert k.sum() == pytest.approx(1.0, abs=1e-6)
        assert np.argmax(k) == len(k) // 2

    def test_gaussian_kernel_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            ops.gaussian_kernel1d(0.0)

    def test_gaussian_blur_preserves_constant(self):
        img = np.full((10, 10, 3), 0.7, dtype=np.float32)
        out = ops.gaussian_blur(img, 2.0)
        assert np.allclose(out, 0.7, atol=1e-5)

    def test_gaussian_blur_reduces_variance(self):
        rng = np.random.default_rng(3)
        img = rng.random((32, 32)).astype(np.float32)
        out = ops.gaussian_blur(img, 1.0)
        assert out.var() < img.var()

    def test_zero_sigma_is_copy(self):
        img = np.random.default_rng(0).random((4, 4)).astype(np.float32)
        out = ops.gaussian_blur(img, 0.0)
        assert np.array_equal(out, img)
        assert out is not img

    def test_unsharp_sharpens_edge(self):
        img = np.zeros((8, 16), dtype=np.float32)
        img[:, 8:] = 1.0
        out = ops.unsharp_mask_batch(img[None, ..., None], sigma=1.0, amount=1.0)
        # Overshoot on the bright side of the edge.
        assert out.max() > 1.0


class TestWarps:
    def test_identity_affine(self):
        img = np.random.default_rng(0).random((6, 6, 3)).astype(np.float32)
        out = ops.affine_warp(img, np.eye(2))
        assert np.allclose(out, img, atol=1e-6)

    def test_perspective_zero_angle_is_identity(self):
        img = np.random.default_rng(1).random((8, 8, 3)).astype(np.float32)
        out = ops.perspective_shift(img, 0.0)
        assert np.allclose(out, img, atol=1e-5)

    def test_perspective_changes_image(self):
        # Edge placed off-center so the foreshortening actually moves it
        # (the warp is anchored at the image center).
        img = np.zeros((16, 16), dtype=np.float32)
        img[:, 3:] = 1.0
        out = ops.perspective_shift(img, 25.0)
        assert not np.allclose(out, img)

    def test_perspective_symmetric_angles_differ(self):
        rng = np.random.default_rng(2)
        img = rng.random((16, 16)).astype(np.float32)
        left = ops.perspective_shift(img, -20.0)
        right = ops.perspective_shift(img, 20.0)
        assert not np.allclose(left, right)
