"""Color-space conversions and color math used by the ISP and codecs.

All conversions operate on float32 arrays shaped ``(..., 3)`` and are fully
vectorized. The JPEG path uses full-range BT.601 YCbCr (the convention of
libjpeg); the ISP uses linear-light sRGB primaries with a standard encoding
gamma.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = [
    "rgb_to_ycbcr",
    "ycbcr_to_rgb",
    "rgb_to_hsv",
    "hsv_to_rgb",
    "apply_color_matrix",
    "srgb_encode",
    "srgb_decode",
    "gray_world_gains",
    "gray_world_gains_batch",
    "apply_wb_gains_batch",
    "luminance",
]

# Full-range BT.601, as used by JFIF/libjpeg.
_RGB_TO_YCBCR = np.array(
    [
        [0.299, 0.587, 0.114],
        [-0.168735892, -0.331264108, 0.5],
        [0.5, -0.418687589, -0.081312411],
    ],
    dtype=np.float32,
)
_YCBCR_TO_RGB = np.linalg.inv(_RGB_TO_YCBCR.astype(np.float64)).astype(np.float32)


def rgb_to_ycbcr(rgb: np.ndarray) -> np.ndarray:
    """Convert ``(..., 3)`` RGB in [0,1] to full-range YCbCr.

    Y lands in ``[0, 1]``; Cb and Cr are centered, in ``[-0.5, 0.5]``.
    """
    rgb = np.asarray(rgb, dtype=np.float32)
    return rgb @ _RGB_TO_YCBCR.T


def ycbcr_to_rgb(ycc: np.ndarray) -> np.ndarray:
    """Inverse of :func:`rgb_to_ycbcr` (no clipping applied)."""
    ycc = np.asarray(ycc, dtype=np.float32)
    return ycc @ _YCBCR_TO_RGB.T


def rgb_to_hsv(rgb: np.ndarray) -> np.ndarray:
    """Vectorized RGB -> HSV. Hue in ``[0, 1)``, S and V in ``[0, 1]``."""
    rgb = np.clip(np.asarray(rgb, dtype=np.float32), 0.0, 1.0)
    maxc = rgb.max(axis=-1)
    minc = rgb.min(axis=-1)
    v = maxc
    delta = maxc - minc
    s = np.where(maxc > 0, delta / np.maximum(maxc, 1e-12), 0.0)

    r, g, b = rgb[..., 0], rgb[..., 1], rgb[..., 2]
    safe_delta = np.maximum(delta, 1e-12)
    rc = (maxc - r) / safe_delta
    gc = (maxc - g) / safe_delta
    bc = (maxc - b) / safe_delta

    h = np.where(r == maxc, bc - gc, np.where(g == maxc, 2.0 + rc - bc, 4.0 + gc - rc))
    h = (h / 6.0) % 1.0
    h = np.where(delta == 0, 0.0, h)
    return np.stack([h, s, v], axis=-1).astype(np.float32)


def hsv_to_rgb(hsv: np.ndarray) -> np.ndarray:
    """Vectorized HSV -> RGB, inverse of :func:`rgb_to_hsv`."""
    hsv = np.asarray(hsv, dtype=np.float32)
    h, s, v = hsv[..., 0] % 1.0, np.clip(hsv[..., 1], 0, 1), hsv[..., 2]
    i = np.floor(h * 6.0)
    f = h * 6.0 - i
    p = v * (1.0 - s)
    q = v * (1.0 - s * f)
    t = v * (1.0 - s * (1.0 - f))
    i = i.astype(np.int64) % 6

    # Select the (r, g, b) permutation per sextant.
    choices = np.stack(
        [
            np.stack([v, t, p], axis=-1),
            np.stack([q, v, p], axis=-1),
            np.stack([p, v, t], axis=-1),
            np.stack([p, q, v], axis=-1),
            np.stack([t, p, v], axis=-1),
            np.stack([v, p, q], axis=-1),
        ],
        axis=0,
    )
    idx = i[None, ..., None]
    rgb = np.take_along_axis(choices, np.broadcast_to(idx, (1,) + i.shape + (3,)), axis=0)[0]
    return rgb.astype(np.float32)


def apply_color_matrix(rgb: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Apply a 3x3 color-correction matrix to ``(..., 3)`` pixels."""
    matrix = np.asarray(matrix, dtype=np.float32)
    if matrix.shape != (3, 3):
        raise ValueError(f"color matrix must be 3x3, got {matrix.shape}")
    return np.asarray(rgb, dtype=np.float32) @ matrix.T


def srgb_encode(linear: np.ndarray) -> np.ndarray:
    """Linear light -> sRGB-encoded, the standard piecewise curve."""
    linear = np.clip(np.asarray(linear, dtype=np.float32), 0.0, 1.0)
    low = linear * 12.92
    high = 1.055 * np.power(linear, 1.0 / 2.4, dtype=np.float32) - 0.055
    return np.where(linear <= 0.0031308, low, high).astype(np.float32)


def srgb_decode(encoded: np.ndarray) -> np.ndarray:
    """sRGB-encoded -> linear light, inverse of :func:`srgb_encode`."""
    encoded = np.clip(np.asarray(encoded, dtype=np.float32), 0.0, 1.0)
    low = encoded / 12.92
    high = np.power((encoded + 0.055) / 1.055, 2.4, dtype=np.float32)
    return np.where(encoded <= 0.04045, low, high).astype(np.float32)


def gray_world_gains(rgb: np.ndarray) -> np.ndarray:
    """Estimate white-balance gains with the gray-world assumption.

    Returns gains ``(gr, gg, gb)`` normalized so the green gain is 1, the
    convention camera ISPs use.
    """
    rgb = np.asarray(rgb, dtype=np.float32)
    means = rgb.reshape(-1, 3).mean(axis=0)
    means = np.maximum(means, 1e-6)
    gains = means[1] / means
    return gains.astype(np.float32)


def gray_world_gains_batch(rgb: np.ndarray) -> np.ndarray:
    """Per-item :func:`gray_world_gains` over an ``(N, H, W, 3)`` stack.

    The gray-world estimate reduces each item over its own pixels, so a
    fused batch-axis reduction would change the pairwise-summation
    blocking; the loop keeps each item's mean bit-identical to the serial
    path. Returns ``(N, 3)`` gains.
    """
    rgb = np.asarray(rgb, dtype=np.float32)
    if rgb.ndim != 4 or rgb.shape[-1] != 3:
        raise ValueError(f"expected (N, H, W, 3), got shape {rgb.shape}")
    return np.stack([gray_world_gains(item) for item in rgb])


def apply_wb_gains_batch(rgb: np.ndarray, gains: np.ndarray) -> np.ndarray:
    """Per-item white-balance gains over an ``(N, H, W, 3)`` stack."""
    gains = np.asarray(gains, dtype=np.float32)
    rgb = np.asarray(rgb, dtype=np.float32)
    if gains.ndim != 2 or gains.shape != (rgb.shape[0], 3):
        raise ValueError(f"expected ({rgb.shape[0]}, 3) gains, got {gains.shape}")
    return rgb * gains[:, None, None, :]


def luminance(rgb: np.ndarray) -> np.ndarray:
    """BT.601 luma of ``(..., 3)`` RGB pixels."""
    rgb = np.asarray(rgb, dtype=np.float32)
    return rgb @ _RGB_TO_YCBCR[0]
