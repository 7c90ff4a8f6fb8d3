"""Low-level spatial image operations shared by scenes, ISP, and devices.

Everything here works on bare float32 arrays — either ``(H, W)`` planes or
``(H, W, 3)`` RGB stacks — and is vectorized with NumPy / SciPy.
"""

from __future__ import annotations

import numpy as np
from scipy import ndimage

from ..lint.contracts import tensor_contract

__all__ = [
    "bilinear_resize",
    "bilinear_resize_batch",
    "center_crop",
    "pad_to_multiple",
    "gaussian_kernel1d",
    "gaussian_blur",
    "gaussian_blur_batch",
    "gaussian_blur_planes_batch",
    "box_blur",
    "unsharp_mask_batch",
    "affine_warp",
    "perspective_shift",
]


@tensor_contract("* float32, _, _ -> * float32")
def bilinear_resize(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Resize an ``(H, W)`` or ``(H, W, C)`` image with bilinear sampling.

    Uses the half-pixel-center convention (align_corners=False), matching
    common image libraries.
    """
    image = np.asarray(image, dtype=np.float32)
    if height <= 0 or width <= 0:
        raise ValueError("target size must be positive")
    src_h, src_w = image.shape[:2]
    if (src_h, src_w) == (height, width):
        return image.copy()

    ys = (np.arange(height, dtype=np.float32) + 0.5) * (src_h / height) - 0.5
    xs = (np.arange(width, dtype=np.float32) + 0.5) * (src_w / width) - 0.5
    ys = np.clip(ys, 0.0, src_h - 1.0)
    xs = np.clip(xs, 0.0, src_w - 1.0)

    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)

    if image.ndim == 2:
        flat = image
        gather = lambda yy, xx: flat[yy[:, None], xx[None, :]]  # noqa: E731
        wy_b = wy[:, None]
        wx_b = wx[None, :]
    else:
        flat = image
        gather = lambda yy, xx: flat[yy[:, None], xx[None, :], :]  # noqa: E731
        wy_b = wy[:, None, None]
        wx_b = wx[None, :, None]

    top = gather(y0, x0) * (1 - wx_b) + gather(y0, x1) * wx_b
    bot = gather(y1, x0) * (1 - wx_b) + gather(y1, x1) * wx_b
    return (top * (1 - wy_b) + bot * wy_b).astype(np.float32)


@tensor_contract("(N, ?, ?, ?) float32, _, _ -> (N, ?, ?, ?) float32")
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
    if height <= 0 or width <= 0:
        raise ValueError("target size must be positive")
    src_h, src_w = images.shape[1:3]
    if (src_h, src_w) == (height, width):
        return images.copy()

    ys = (np.arange(height, dtype=np.float32) + 0.5) * (src_h / height) - 0.5
    xs = (np.arange(width, dtype=np.float32) + 0.5) * (src_w / width) - 0.5
    ys = np.clip(ys, 0.0, src_h - 1.0)
    xs = np.clip(xs, 0.0, src_w - 1.0)

    y0 = np.floor(ys).astype(np.int64)
    x0 = np.floor(xs).astype(np.int64)
    y1 = np.minimum(y0 + 1, src_h - 1)
    x1 = np.minimum(x0 + 1, src_w - 1)
    wy = (ys - y0).astype(np.float32)
    wx = (xs - x0).astype(np.float32)

    wy_b = wy[None, :, None, None]
    wx_b = wx[None, None, :, None]

    def gather(yy: np.ndarray, xx: np.ndarray) -> np.ndarray:
        return images[:, yy[:, None], xx[None, :], :]

    top = gather(y0, x0) * (1 - wx_b) + gather(y0, x1) * wx_b
    bot = gather(y1, x0) * (1 - wx_b) + gather(y1, x1) * wx_b
    return (top * (1 - wy_b) + bot * wy_b).astype(np.float32)


def center_crop(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Crop the central ``height x width`` window."""
    src_h, src_w = image.shape[:2]
    if height > src_h or width > src_w:
        raise ValueError(
            f"crop {height}x{width} larger than image {src_h}x{src_w}"
        )
    y0 = (src_h - height) // 2
    x0 = (src_w - width) // 2
    return np.ascontiguousarray(image[y0 : y0 + height, x0 : x0 + width])


def pad_to_multiple(image: np.ndarray, multiple: int, mode: str = "edge") -> np.ndarray:
    """Pad bottom/right so both spatial dims are multiples of ``multiple``."""
    if multiple <= 0:
        raise ValueError("multiple must be positive")
    h, w = image.shape[:2]
    pad_h = (-h) % multiple
    pad_w = (-w) % multiple
    if pad_h == 0 and pad_w == 0:
        return image
    pads = [(0, pad_h), (0, pad_w)] + [(0, 0)] * (image.ndim - 2)
    return np.pad(image, pads, mode=mode)


@tensor_contract("_, _ -> (K,) float32")
def gaussian_kernel1d(sigma: float, radius: int | None = None) -> np.ndarray:
    """A normalized 1-D Gaussian kernel."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if radius is None:
        radius = max(1, int(np.ceil(3.0 * sigma)))
    xs = np.arange(-radius, radius + 1, dtype=np.float32)
    kernel = np.exp(-0.5 * (xs / sigma) ** 2)
    return (kernel / kernel.sum()).astype(np.float32)


@tensor_contract("* float32, _ -> * float32")
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


@tensor_contract("(N, ?, ?, ?) float32, _ -> (N, ?, ?, ?) float32")
def gaussian_blur_batch(images: np.ndarray, sigma: float) -> np.ndarray:
    """Batched :func:`gaussian_blur` over an ``(N, H, W, C)`` stack.

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


@tensor_contract("(N, ?, ?) float32, _ -> (N, ?, ?) float32")
def gaussian_blur_planes_batch(planes: np.ndarray, sigma: float) -> np.ndarray:
    """Batched :func:`gaussian_blur` over an ``(N, H, W)`` plane stack."""
    if sigma <= 0:
        return np.asarray(planes, dtype=np.float32).copy()
    out = np.asarray(planes, dtype=np.float32)
    for axis in (1, 2):
        out = ndimage.gaussian_filter1d(out, sigma=sigma, axis=axis, mode="nearest")
    return out.astype(np.float32)


def box_blur(image: np.ndarray, size: int) -> np.ndarray:
    """Uniform (box) blur with an odd window ``size``."""
    if size < 1 or size % 2 == 0:
        raise ValueError("box size must be odd and >= 1")
    if size == 1:
        return np.asarray(image, dtype=np.float32).copy()
    image = np.asarray(image, dtype=np.float32)
    out = ndimage.uniform_filter1d(image, size=size, axis=0, mode="nearest")
    out = ndimage.uniform_filter1d(out, size=size, axis=1, mode="nearest")
    return out.astype(np.float32)


@tensor_contract("(N, ?, ?, ?) float32, _, _ -> (N, ?, ?, ?) float32")
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
