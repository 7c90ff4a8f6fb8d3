"""ISP pipeline stages.

An image signal processor turns raw sensor data into a display-referred
image through a sequence of stages (paper §6 lists the common ones:
color correction, lens correction, demosaicing, noise reduction). Each
stage here transforms a :class:`BatchISPState` — a stack of captures on a
leading batch axis, one capture being a batch of one — and
:mod:`repro.isp.pipeline` chains them.

Stage parameterization is the mechanism for modeling *different vendors'
ISPs*: the same stage classes with different parameters (demosaic
algorithm, tone-curve strength, CCM, sharpening) produce visibly and —
downstream of a classifier — behaviourally different images from
identical raw input, which the paper measures as 14.11% instability
(Table 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np
from scipy import ndimage

from ..imaging.color import (
    apply_color_matrix,
    apply_wb_gains_batch,
    gray_world_gains_batch,
    srgb_encode,
)
from ..imaging.image import BAYER_PATTERNS, RawImage
from ..imaging.ops import (
    bilinear_resize_batch,
    gaussian_blur_batch,
    unsharp_mask_batch,
)

__all__ = [
    "BatchISPState",
    "ISPStage",
    "BlackLevelCorrection",
    "Demosaic",
    "WhiteBalance",
    "ColorCorrection",
    "ToneMap",
    "GammaEncode",
    "Denoise",
    "Sharpen",
    "Resize",
]


@dataclass
class BatchISPState:
    """A stack of captures flowing through the pipeline together.

    ``mosaic`` is ``(N, H, W)`` and ``rgb`` is ``(N, H, W, 3)``; ``raws``
    keeps each item's calibration metadata, which may differ per item.
    Starts with ``mosaic`` set (and ``rgb`` None); the demosaic stage
    populates ``rgb`` and later stages refine it. The invariant every
    stage upholds: item ``i`` depends only on item ``i``'s inputs, so a
    batch of N is bit-identical to N batches of one.
    """

    raws: List[RawImage]
    mosaic: Optional[np.ndarray] = None
    rgb: Optional[np.ndarray] = None

    def require_mosaic(self) -> np.ndarray:
        if self.mosaic is None:
            raise RuntimeError("stage requires mosaic-domain data (before demosaic)")
        return self.mosaic

    def require_rgb(self) -> np.ndarray:
        if self.rgb is None:
            raise RuntimeError("stage requires RGB-domain data (after demosaic)")
        return self.rgb


class ISPStage:
    """Base class: stages implement ``process_batch`` and are stateless."""

    def process_batch(
        self, state: BatchISPState
    ) -> BatchISPState:  # pragma: no cover - abstract
        raise NotImplementedError

    @property
    def name(self) -> str:
        return type(self).__name__


def _black_level_batch(
    mosaic: np.ndarray, black_level: np.ndarray, span: np.ndarray
) -> np.ndarray:
    """Pedestal removal over an ``(N, H, W)`` stack with ``(N, 1, 1)`` levels."""
    return np.clip((mosaic - black_level) / span, 0.0, 1.0)


def _per_item(values) -> np.ndarray:
    """An ``(N, 1, 1)`` float32 column of per-item calibration scalars.

    Each Python float rounds to float32 exactly as it would as a scalar
    operand of a float32 array, so mixed-calibration batches develop each
    item as it would develop alone.
    """
    return np.asarray(values, dtype=np.float32).reshape(-1, 1, 1)


@dataclass
class BlackLevelCorrection(ISPStage):
    """Subtract the pedestal and normalize to [0, 1] sensor range."""

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        raws = state.raws
        black = _per_item([r.black_level for r in raws])
        span = _per_item([r.white_level - r.black_level for r in raws])
        state.mosaic = _black_level_batch(state.require_mosaic(), black, span)
        return state


def _channel_maps(raws: List[RawImage], height: int, width: int) -> np.ndarray:
    """CFA channel index per photosite: ``(1, H, W)`` when every item
    shares one Bayer pattern, else ``(N, H, W)``."""
    patterns = [r.pattern for r in raws]
    if len(set(patterns)) == 1:
        patterns = patterns[:1]
    return np.stack(
        [np.tile(BAYER_PATTERNS[p], (height // 2, width // 2)) for p in patterns]
    )


def _bilinear_demosaic_batch(mosaic: np.ndarray, channel_map: np.ndarray) -> np.ndarray:
    """Normalized-convolution bilinear demosaic over ``(N, H, W)`` mosaics.

    ``channel_map`` is :func:`_channel_maps` output. A ``(1, k, k)``
    kernel makes ``ndimage.convolve`` filter each item's spatial plane
    independently (the batch axis never mixes).
    """
    n, h, w = mosaic.shape
    kernel = np.array([[0.25, 0.5, 0.25], [0.5, 1.0, 0.5], [0.25, 0.5, 0.25]])[None]
    rgb = np.empty((n, h, w, 3), dtype=np.float32)
    for c in range(3):
        mask = (channel_map == c).astype(np.float32)
        values = ndimage.convolve(mosaic * mask, kernel, mode="mirror")
        weights = ndimage.convolve(mask, kernel, mode="mirror")
        rgb[..., c] = values / np.maximum(weights, 1e-8)
    return rgb


# Malvar-He-Cutler 2004 gradient-corrected kernels, x 1/8.
_MALVAR_G_AT_RB = np.array(
    [
        [0, 0, -1, 0, 0],
        [0, 0, 2, 0, 0],
        [-1, 2, 4, 2, -1],
        [0, 0, 2, 0, 0],
        [0, 0, -1, 0, 0],
    ],
    dtype=np.float64,
) / 8.0

_MALVAR_RB_AT_G_SAME_ROW = np.array(
    [
        [0, 0, 0.5, 0, 0],
        [0, -1, 0, -1, 0],
        [-1, 4, 5, 4, -1],
        [0, -1, 0, -1, 0],
        [0, 0, 0.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0

_MALVAR_RB_AT_G_SAME_COL = _MALVAR_RB_AT_G_SAME_ROW.T

_MALVAR_RB_AT_OPPOSITE = np.array(
    [
        [0, 0, -1.5, 0, 0],
        [0, 2, 0, 2, 0],
        [-1.5, 0, 6, 0, -1.5],
        [0, 2, 0, 2, 0],
        [0, 0, -1.5, 0, 0],
    ],
    dtype=np.float64,
) / 8.0


def _malvar_demosaic_batch(mosaic: np.ndarray, channel_map: np.ndarray) -> np.ndarray:
    """Malvar-He-Cutler gradient-corrected linear demosaic, ``(N, H, W)``.

    Sharper than bilinear with characteristic edge behaviour — exactly the
    kind of algorithmic choice that distinguishes one vendor ISP from
    another. ``channel_map`` is :func:`_channel_maps` output.
    """
    n, h, w = mosaic.shape
    m = mosaic.astype(np.float64)

    conv = lambda kern: ndimage.convolve(m, kern[None], mode="mirror")  # noqa: E731
    g_at_rb = conv(_MALVAR_G_AT_RB)
    rb_same_row = conv(_MALVAR_RB_AT_G_SAME_ROW)
    rb_same_col = conv(_MALVAR_RB_AT_G_SAME_COL)
    rb_opposite = conv(_MALVAR_RB_AT_OPPOSITE)

    is_r = channel_map == 0
    is_g = channel_map == 1
    is_b = channel_map == 2
    # Row kind: does this row contain red photosites?
    rows_with_r = is_r.any(axis=-1, keepdims=True)

    rgb = np.empty((n, h, w, 3), dtype=np.float64)
    # Green: native at G, interpolated at R and B.
    rgb[..., 1] = np.where(is_g, m, g_at_rb)
    # Red.
    r_at_g = np.where(rows_with_r, rb_same_row, rb_same_col)
    rgb[..., 0] = np.where(is_r, m, np.where(is_g, r_at_g, rb_opposite))
    # Blue (mirror of red: blue rows are the non-red rows).
    b_at_g = np.where(rows_with_r, rb_same_col, rb_same_row)
    rgb[..., 2] = np.where(is_b, m, np.where(is_g, b_at_g, rb_opposite))

    return np.clip(rgb, 0.0, 1.0).astype(np.float32)


@dataclass
class Demosaic(ISPStage):
    """Reconstruct full RGB from the Bayer mosaic.

    ``algorithm`` is ``"bilinear"`` or ``"malvar"``.
    """

    algorithm: str = "malvar"

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        mosaic = state.require_mosaic()
        channel_map = _channel_maps(state.raws, *mosaic.shape[1:])
        if self.algorithm == "bilinear":
            state.rgb = _bilinear_demosaic_batch(mosaic, channel_map)
        elif self.algorithm == "malvar":
            state.rgb = _malvar_demosaic_batch(mosaic, channel_map)
        else:
            raise ValueError(f"unknown demosaic algorithm {self.algorithm!r}")
        state.mosaic = None
        return state


@dataclass
class WhiteBalance(ISPStage):
    """Neutralize the illuminant / sensor color response.

    ``source`` selects the gains: ``"as_shot"`` uses the camera's metadata
    estimate; ``"gray_world"`` re-estimates from the image. ``strength``
    blends between no correction (0) and full correction (1) — vendors
    deliberately under-correct to keep scenes "warm".
    """

    source: str = "as_shot"
    strength: float = 1.0

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        rgb = state.require_rgb()
        if self.source == "as_shot":
            gains = np.stack(
                [np.asarray(r.wb_gains, dtype=np.float32) for r in state.raws]
            )
        elif self.source == "gray_world":
            gains = gray_world_gains_batch(rgb)
        else:
            raise ValueError(f"unknown white balance source {self.source!r}")
        blended = 1.0 + (gains - 1.0) * np.float32(self.strength)
        state.rgb = np.clip(apply_wb_gains_batch(rgb, blended), 0.0, 4.0)
        return state


@dataclass
class ColorCorrection(ISPStage):
    """Apply a 3x3 color-correction matrix (sensor space -> sRGB-ish)."""

    matrix: np.ndarray = field(
        default_factory=lambda: np.array(
            [[1.45, -0.30, -0.15], [-0.25, 1.45, -0.20], [-0.10, -0.40, 1.50]],
            dtype=np.float32,
        )
    )

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        # ``(..., 3) @ (3, 3).T`` batches over leading dims independently.
        rgb = state.require_rgb()
        state.rgb = np.clip(apply_color_matrix(rgb, self.matrix), 0.0, 4.0)
        return state


@dataclass
class ToneMap(ISPStage):
    """Contrast S-curve in linear light.

    ``strength`` 0 is identity; higher values deepen shadows and roll off
    highlights more aggressively (vendor "look").
    """

    strength: float = 0.3

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        if self.strength < 0:
            raise ValueError("tone map strength must be non-negative")
        rgb = np.clip(state.require_rgb(), 0.0, 1.0)
        if self.strength == 0:
            return state
        curved = rgb * rgb * (3.0 - 2.0 * rgb)
        state.rgb = (1 - self.strength) * rgb + self.strength * curved
        return state


@dataclass
class GammaEncode(ISPStage):
    """Encode linear light for display: sRGB curve or a pure power law."""

    mode: str = "srgb"
    gamma: float = 2.2

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        # Both curves are elementwise, so the stacked call is identical.
        rgb = np.clip(state.require_rgb(), 0.0, 1.0)
        if self.mode == "srgb":
            state.rgb = srgb_encode(rgb)
        elif self.mode == "power":
            state.rgb = np.power(rgb, np.float32(1.0 / self.gamma))
        else:
            raise ValueError(f"unknown gamma mode {self.mode!r}")
        return state


@dataclass
class Denoise(ISPStage):
    """Edge-preserving-ish noise reduction.

    Chroma is smoothed more than luma (the universal ISP trick: human
    vision tolerates chroma blur). ``luma_sigma``/``chroma_sigma`` are
    Gaussian sigmas in pixels.
    """

    luma_sigma: float = 0.4
    chroma_sigma: float = 1.2

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        from ..imaging.color import rgb_to_ycbcr, ycbcr_to_rgb

        rgb = state.require_rgb()
        ycc = rgb_to_ycbcr(np.clip(rgb, 0.0, 1.0))
        if self.luma_sigma > 0:
            ycc[..., 0] = gaussian_blur_batch(ycc[..., 0], self.luma_sigma)
        if self.chroma_sigma > 0:
            ycc[..., 1] = gaussian_blur_batch(ycc[..., 1], self.chroma_sigma)
            ycc[..., 2] = gaussian_blur_batch(ycc[..., 2], self.chroma_sigma)
        state.rgb = np.clip(ycbcr_to_rgb(ycc), 0.0, 1.0)
        return state


@dataclass
class Sharpen(ISPStage):
    """Unsharp-mask sharpening (applied post-gamma by most vendors)."""

    amount: float = 0.5
    sigma: float = 1.0

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        if self.amount < 0:
            raise ValueError("sharpen amount must be non-negative")
        rgb = state.require_rgb()
        state.rgb = np.clip(unsharp_mask_batch(rgb, self.sigma, self.amount), 0.0, 1.0)
        return state


@dataclass
class Resize(ISPStage):
    """Scale to the pipeline's output resolution."""

    height: int = 96
    width: int = 96

    def process_batch(self, state: BatchISPState) -> BatchISPState:
        rgb = state.require_rgb()
        state.rgb = bilinear_resize_batch(rgb, self.height, self.width)
        return state
