"""Image containers, color math, spatial ops, and difference metrics."""

from .image import BAYER_PATTERNS, ImageBuffer, RawImage
from .metrics import PixelDiffStats, mse, pixel_diff_map, psnr, ssim
from .ops import (
    affine_warp,
    bilinear_resize,
    gaussian_blur,
    perspective_shift,
)
from . import color

__all__ = [
    "BAYER_PATTERNS",
    "ImageBuffer",
    "RawImage",
    "PixelDiffStats",
    "mse",
    "pixel_diff_map",
    "psnr",
    "ssim",
    "affine_warp",
    "bilinear_resize",
    "gaussian_blur",
    "perspective_shift",
    "color",
]
