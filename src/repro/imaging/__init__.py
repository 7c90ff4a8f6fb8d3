"""Image containers, color math, spatial ops, and difference metrics."""

from .image import BAYER_PATTERNS, ImageBuffer, RawImage
from .metrics import PixelDiffStats, mse, pixel_diff_map, psnr, ssim
from .ops import (
    affine_warp,
    bilinear_resize,
    box_blur,
    center_crop,
    gaussian_blur,
    pad_to_multiple,
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
    "box_blur",
    "center_crop",
    "gaussian_blur",
    "pad_to_multiple",
    "perspective_shift",
    "color",
]
