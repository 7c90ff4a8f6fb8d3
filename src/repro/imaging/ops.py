"""Low-level spatial image operations shared by scenes, ISP, and devices.

Everything here works on bare float32 arrays — either ``(H, W)`` planes or
``(H, W, 3)`` RGB stacks — and is vectorized with NumPy / SciPy.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import ndimage

__all__ = [
    "bilinear_corners",
    "bilinear_lerp",
    "bilinear_resize",
    "bilinear_resize_batch",
    "gaussian_kernel1d",
    "gaussian_blur",
    "gaussian_blur_batch",
    "unsharp_mask_batch",
    "affine_warp",
    "perspective_shift",
]


@functools.lru_cache(maxsize=16)
def _bilinear_grid(src_h: int, src_w: int, height: int, width: int):
    """The sample grid of a half-pixel-center bilinear resize.

    Returns ``(taps, wy, wx)``. ``taps`` is an ``(4, height, width)`` int64
    array of flat source indices ``y * src_w + x`` at (y0, x0), (y0, x1),
    (y1, x0) and (y1, x1); ``wy`` ``(height, 1)`` and ``wx`` ``(1, width)``
    are the float32 weights of y1 and x1. The grid depends only on the
    geometry, so it is computed once per geometry and returned read-only.
    """
    if height <= 0 or width <= 0:
        raise ValueError("target size must be positive")
    ys = (np.arange(height, dtype=np.float32) + 0.5) * (src_h / height) - 0.5
    xs = (np.arange(width, dtype=np.float32) + 0.5) * (src_w / width) - 0.5
    ys = np.clip(ys, 0.0, src_h - 1.0)
    xs = np.clip(xs, 0.0, src_w - 1.0)

    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0).astype(np.float32)[:, None]
    wx = (xs - x0).astype(np.float32)[None, :]
    taps = np.stack(
        [(yy * src_w)[:, None] + xx[None, :] for yy in (y0, y1) for xx in (x0, x1)]
    )
    for array in (taps, wy, wx):
        array.flags.writeable = False
    return taps, wy, wx


def bilinear_corners(images, height: int, width: int):
    """Gather the four corner samples of a bilinear resize of each image.

    ``images`` is a sequence (or stack) of equal-shape ``(H, W, ...)``
    arrays. Returns ``(corners, wy, wx)``: ``corners`` is
    ``(4, N, height, width, ...)``, the samples at (y0, x0), (y0, x1),
    (y1, x0) and (y1, x1), and the weights broadcast against one
    ``(N, height, width, ...)`` corner. :func:`bilinear_lerp` blends
    them. Any elementwise map (such as quantization) may run on the
    corners before the blend: it gives the same bits as running it on
    the whole image first.
    """
    first = images[0]
    src_h, src_w = first.shape[:2]
    taps, wy, wx = _bilinear_grid(src_h, src_w, height, width)
    corners = np.empty((4, len(images), height, width) + first.shape[2:], first.dtype)
    for i, image in enumerate(images):
        flat = image.reshape((src_h * src_w,) + image.shape[2:])
        np.take(flat, taps, axis=0, out=corners[:, i])
    trail = first.shape[2:]
    ones = (1,) * len(trail)
    # x weights repeated over the trailing axes: the blend then runs
    # whole contiguous rows instead of a broadcast inner loop of length C.
    wx = np.broadcast_to(wx.reshape(wx.shape + ones), (1, width) + trail)
    return corners, wy.reshape(wy.shape + ones), np.ascontiguousarray(wx)


def bilinear_lerp(corners: np.ndarray, wy: np.ndarray, wx: np.ndarray) -> np.ndarray:
    """Blend :func:`bilinear_corners`' samples: across x, then across y.

    ``top = c00 * (1 - wx) + c01 * wx``, ``bot`` likewise from c10 and c11,
    then ``top * (1 - wy) + bot * wy``: the same operations in the same
    order as the textbook form, run in place on ``corners``. Returns a
    view into ``corners``.
    """
    top, c01, bot, c11 = corners
    wx_rest = 1 - wx
    top *= wx_rest
    c01 *= wx
    top += c01
    bot *= wx_rest
    c11 *= wx
    bot += c11
    top *= 1 - wy
    bot *= wy
    top += bot
    return top


def bilinear_resize(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resize an ``(H, W)`` or ``(H, W, C)`` image with bilinear sampling.

    Uses the half-pixel-center convention (align_corners=False), matching
    common image libraries.
    """
    image = np.asarray(image, dtype=np.float32)
    if image.shape[:2] == (height, width):
        return image.copy()
    return bilinear_lerp(*bilinear_corners([image], height, width))[0].copy()


def bilinear_resize_batch(images: np.ndarray, height: int, width: int) -> np.ndarray:
    """Batched :func:`bilinear_resize` over an ``(N, H, W, C)`` stack.

    Item ``i`` of the result is bit-identical to
    ``bilinear_resize(images[i], height, width)``: the sample grid and
    interpolation weights depend only on the geometry, so they are shared,
    and the gather + lerp arithmetic is elementwise per item.
    """
    images = np.asarray(images, dtype=np.float32)
    if images.ndim != 4:
        raise ValueError(f"expected (N, H, W, C), got shape {images.shape}")
    if images.shape[1:3] == (height, width):
        return images.copy()
    return bilinear_lerp(*bilinear_corners(images, height, width)).copy()


def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """A normalized 1-D Gaussian kernel."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float32)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    return (kernel / kernel.sum()).astype(np.float32)


def gaussian_blur(image: np.ndarray, sigma: float) -> np.ndarray:
    """Separable Gaussian blur on an ``(H, W)`` or ``(H, W, C)`` image."""
    if sigma <= 0:
        return np.asarray(image, dtype=np.float32).copy()
    image = np.asarray(image, dtype=np.float32)
    axes = (0, 1)
    out = image
    for axis in axes:
        out = ndimage.gaussian_filter1d(out, sigma=sigma, axis=axis, mode="nearest")
    return out.astype(np.float32)


def gaussian_blur_batch(images: np.ndarray, sigma: float) -> np.ndarray:
    """Batched :func:`gaussian_blur` over an ``(N, H, W)`` or ``(N, H, W, C)`` stack.

    ``gaussian_filter1d`` runs the same 1-D correlation along each
    spatial line regardless of how many leading batch dims surround it,
    so filtering axes ``(1, 2)`` here is bit-identical to filtering axes
    ``(0, 1)`` of each item separately.
    """
    if sigma <= 0:
        return np.asarray(images, dtype=np.float32).copy()
    out = np.asarray(images, dtype=np.float32)
    for axis in (1, 2):
        out = ndimage.gaussian_filter1d(out, sigma=sigma, axis=axis, mode="nearest")
    return out.astype(np.float32)


def unsharp_mask_batch(images: np.ndarray, sigma: float, amount: float) -> np.ndarray:
    """Classic unsharp masking over an ``(N, H, W, C)`` stack:
    ``img + amount * (img - blur(img))``."""
    images = np.asarray(images, dtype=np.float32)
    blurred = gaussian_blur_batch(images, sigma)
    return images + np.float32(amount) * (images - blurred)


def affine_warp(
    image: np.ndarray,
    matrix: np.ndarray,
    offset: np.ndarray | tuple = (0.0, 0.0),
    order: int = 1,
    cval: float = 0.0,
    mode: str = "constant",
) -> np.ndarray:
    """Apply an inverse affine map ``(row, col) -> matrix @ (row, col) + offset``.

    Thin wrapper over :func:`scipy.ndimage.affine_transform` that handles the
    channel axis of RGB stacks.
    """
    image = np.asarray(image, dtype=np.float32)
    matrix = np.asarray(matrix, dtype=np.float64)
    if image.ndim == 2:
        return ndimage.affine_transform(
            image, matrix, offset=offset, order=order, cval=cval, mode=mode
        ).astype(np.float32)
    channels = [
        ndimage.affine_transform(
            image[..., c], matrix, offset=offset, order=order, cval=cval, mode=mode
        )
        for c in range(image.shape[2])
    ]
    return np.stack(channels, axis=-1).astype(np.float32)


def perspective_shift(image: np.ndarray, angle_deg: float, cval: float = 0.0) -> np.ndarray:
    """Simulate photographing a flat screen from a horizontal viewing angle.

    A positive ``angle_deg`` corresponds to standing to the right of the
    screen: the image is horizontally foreshortened and sheared. This is the
    geometric model behind the paper's five capture angles (left,
    center-left, center, center-right, right).
    """
    image = np.asarray(image, dtype=np.float32)
    theta = np.deg2rad(angle_deg)
    # Half-strength foreshortening: the rig's mount keeps the phones close
    # to the screen normal, so a nominal 30-degree position produces only a
    # mild geometric change (the paper's Fig. 3d finds within-phone,
    # across-angle instability well below the cross-phone level).
    squeeze = 1.0 - (1.0 - float(np.cos(theta))) * 0.5
    shear = float(np.sin(theta)) * 0.05
    h, w = image.shape[:2]
    cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
    # Inverse map: output (r, c) samples input at (r', c').
    matrix = np.array([[1.0, shear], [0.0, 1.0 / max(squeeze, 1e-3)]])
    center = np.array([cy, cx])
    offset = center - matrix @ center
    # Edge replication: a camera aimed at a screen sees the screen bezel /
    # wall continue past the frame, not black void.
    return affine_warp(image, matrix, offset=offset, order=1, cval=cval, mode="nearest")
