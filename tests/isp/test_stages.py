"""Tests for individual ISP stages, each run on a batch of one."""

import numpy as np
import pytest

from repro.imaging import ImageBuffer, RawImage
from repro.isp.stages import (
    BatchISPState,
    BlackLevelCorrection,
    ColorCorrection,
    Demosaic,
    Denoise,
    GammaEncode,
    Resize,
    Sharpen,
    ToneMap,
    WhiteBalance,
)


def _raw_state(mosaic=None, pattern="RGGB", black=0.1, wb=(1.5, 1.0, 1.8)):
    if mosaic is None:
        mosaic = np.full((16, 16), 0.5, dtype=np.float32)
    raw = RawImage(
        mosaic=mosaic, pattern=pattern, black_level=black, wb_gains=wb
    )
    return BatchISPState(raws=[raw], mosaic=raw.mosaic.copy()[None])


def _rgb_state(rgb):
    state = _raw_state()
    state.mosaic = None
    state.rgb = np.asarray(rgb, dtype=np.float32)[None]
    return state


class TestStateGuards:
    def test_rgb_stage_requires_demosaic_first(self):
        with pytest.raises(RuntimeError):
            WhiteBalance().process_batch(_raw_state())

    def test_mosaic_stage_after_demosaic_fails(self):
        state = _rgb_state(np.ones((4, 4, 3)))
        with pytest.raises(RuntimeError):
            BlackLevelCorrection().process_batch(state)


class TestBlackLevel:
    def test_subtracts_pedestal(self):
        state = _raw_state(np.full((8, 8), 0.55, dtype=np.float32), black=0.1)
        out = BlackLevelCorrection().process_batch(state)
        assert out.mosaic[0].mean() == pytest.approx(0.5, abs=1e-5)

    def test_clips_below_black(self):
        state = _raw_state(np.full((8, 8), 0.05, dtype=np.float32), black=0.1)
        out = BlackLevelCorrection().process_batch(state)
        assert out.mosaic[0].min() == 0.0


class TestDemosaic:
    @pytest.mark.parametrize("algorithm", ["bilinear", "malvar"])
    def test_flat_field_reconstructs_flat(self, algorithm):
        state = _raw_state(np.full((16, 16), 0.4, dtype=np.float32))
        out = Demosaic(algorithm).process_batch(state)
        assert out.rgb[0].shape == (16, 16, 3)
        assert np.allclose(out.rgb[0], 0.4, atol=0.02)
        assert out.mosaic is None

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            Demosaic("ai_magic").process_batch(_raw_state())

    def test_algorithms_differ_on_edges(self):
        rng = np.random.default_rng(0)
        mosaic = rng.random((16, 16)).astype(np.float32)
        a = Demosaic("bilinear").process_batch(_raw_state(mosaic.copy())).rgb[0]
        b = Demosaic("malvar").process_batch(_raw_state(mosaic.copy())).rgb[0]
        assert not np.allclose(a, b, atol=1e-3)

    @pytest.mark.parametrize("pattern", ["RGGB", "BGGR", "GRBG", "GBRG"])
    def test_recovers_solid_color(self, pattern):
        """A pure-red field mosaiced then demosaiced stays red-dominant."""
        from repro.imaging.image import BAYER_PATTERNS

        cell = BAYER_PATTERNS[pattern]
        channel_map = np.tile(cell, (8, 8))
        color = np.array([0.8, 0.3, 0.1], dtype=np.float32)
        mosaic = color[channel_map]
        out = Demosaic("malvar").process_batch(_raw_state(mosaic, pattern=pattern)).rgb[0]
        center = out[4:-4, 4:-4]
        assert np.allclose(center.mean(axis=(0, 1)), color, atol=0.05)


class TestColorStages:
    def test_white_balance_as_shot(self):
        state = _rgb_state(np.full((4, 4, 3), 0.4, dtype=np.float32))
        out = WhiteBalance("as_shot", strength=1.0).process_batch(state)
        assert out.rgb[0, 0, 0, 0] == pytest.approx(0.4 * 1.5)
        assert out.rgb[0, 0, 0, 1] == pytest.approx(0.4)

    def test_white_balance_strength_blends(self):
        state = _rgb_state(np.full((4, 4, 3), 0.4, dtype=np.float32))
        out = WhiteBalance("as_shot", strength=0.5).process_batch(state)
        assert out.rgb[0, 0, 0, 0] == pytest.approx(0.4 * 1.25)

    def test_white_balance_unknown_source(self):
        with pytest.raises(ValueError):
            WhiteBalance("oracle").process_batch(_rgb_state(np.ones((2, 2, 3))))

    def test_color_correction_identity(self):
        rgb = np.random.default_rng(0).random((4, 4, 3)).astype(np.float32)
        out = ColorCorrection(np.eye(3, dtype=np.float32)).process_batch(_rgb_state(rgb))
        assert np.allclose(out.rgb[0], rgb)

    def test_tone_map_increases_contrast(self):
        rgb = np.array([[[0.2, 0.2, 0.2], [0.8, 0.8, 0.8]]], dtype=np.float32)
        out = ToneMap(strength=1.0).process_batch(_rgb_state(rgb))
        assert out.rgb[0, 0, 0, 0] < 0.2  # shadows deepen
        assert out.rgb[0, 0, 1, 0] > 0.8  # highlights lift

    def test_tone_map_zero_is_identity(self):
        rgb = np.random.default_rng(1).random((4, 4, 3)).astype(np.float32)
        out = ToneMap(strength=0.0).process_batch(_rgb_state(rgb.copy()))
        assert np.allclose(out.rgb[0], rgb)

    def test_tone_map_rejects_negative(self):
        with pytest.raises(ValueError):
            ToneMap(strength=-1).process_batch(_rgb_state(np.ones((2, 2, 3))))

    def test_gamma_srgb_matches_reference(self):
        from repro.imaging.color import srgb_encode

        rgb = np.full((2, 2, 3), 0.18, dtype=np.float32)
        out = GammaEncode("srgb").process_batch(_rgb_state(rgb))
        assert np.allclose(out.rgb[0], srgb_encode(rgb))

    def test_gamma_power(self):
        rgb = np.full((2, 2, 3), 0.25, dtype=np.float32)
        out = GammaEncode("power", gamma=2.0).process_batch(_rgb_state(rgb))
        assert out.rgb[0, 0, 0, 0] == pytest.approx(0.5, abs=1e-5)

    def test_gamma_unknown_mode(self):
        with pytest.raises(ValueError):
            GammaEncode("hdr").process_batch(_rgb_state(np.ones((2, 2, 3))))


class TestSpatialStages:
    def test_denoise_reduces_noise(self):
        rng = np.random.default_rng(0)
        rgb = 0.5 + rng.normal(0, 0.1, (32, 32, 3)).astype(np.float32)
        out = Denoise(luma_sigma=1.0, chroma_sigma=2.0).process_batch(_rgb_state(rgb))
        assert out.rgb[0].std() < rgb.std()

    def test_sharpen_enhances_edges(self):
        rgb = np.zeros((8, 16, 3), dtype=np.float32)
        rgb[:, 8:] = 0.8
        out = Sharpen(amount=1.0, sigma=1.0).process_batch(_rgb_state(rgb))
        # Local contrast at the edge increases (clipped at 0 below).
        assert out.rgb[0, :, 8:].max() > 0.8

    def test_sharpen_rejects_negative(self):
        with pytest.raises(ValueError):
            Sharpen(amount=-0.5).process_batch(_rgb_state(np.ones((2, 2, 3))))

    def test_resize(self):
        out = Resize(10, 20).process_batch(_rgb_state(np.ones((4, 4, 3), dtype=np.float32)))
        assert out.rgb[0].shape == (10, 20, 3)
