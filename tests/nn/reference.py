"""Oracles for the model's input path and its layer kernels.

These are the forms that once ran in ``nn/preprocess.py``,
``imaging/ops.py``, ``nn/layers.py`` and ``nn/functional.py``: quantize
the whole image to uint8, resize it with a self-contained bilinear
gather and lerp, scale to ``[-1, 1]``, one image at a time; BatchNorm as
one expression; ``im2col`` over an ``np.pad``-ed input; and the
depthwise convolution as one ``np.einsum``. Slow and obviously correct,
they are what the batched, quantize-the-corners front end, the in-place
BatchNorm, the zero-buffer padding and the direct depthwise matmul are
proven bit-identical against (``test_preprocess_oracle.py``,
``test_conv_oracle.py``).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.imaging.image import ImageBuffer

__all__ = [
    "batchnorm_forward",
    "bilinear_resize",
    "depthwise_conv2d_forward",
    "im2col",
    "to_model_input",
    "windows",
]


def bilinear_resize(image: np.ndarray, height: int, width: int) -> np.ndarray:
    """Half-pixel-center bilinear resize of an ``(H, W)`` or ``(H, W, C)`` image."""
    image = np.asarray(image, dtype=np.float32)
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

    trail = (None,) * (image.ndim - 2)
    wy_b = wy[(slice(None), None) + trail]
    wx_b = wx[(None, slice(None)) + trail]

    def gather(yy, xx):
        return image[yy[:, None], xx[None, :]]

    top = gather(y0, x0) * (1 - wx_b) + gather(y0, x1) * wx_b
    bot = gather(y1, x0) * (1 - wx_b) + gather(y1, x1) * wx_b
    return (top * (1 - wy_b) + bot * wy_b).astype(np.float32)


def to_model_input(images: Sequence[ImageBuffer], size: int = 32) -> np.ndarray:
    """``(N, 3, size, size)``: quantize each whole image, then resize it."""
    batch = []
    for buf in images:
        quantized = (np.clip(buf.pixels, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        pixels = quantized.astype(np.float32) / 255.0
        batch.append(bilinear_resize(pixels, size, size).transpose(2, 0, 1))
    stacked = np.stack(batch, axis=0)
    return ((stacked - 0.5) / 0.5).astype(np.float32)


def batchnorm_forward(x, mean, var, gamma, beta, eps):
    """``(y, x_hat, inv_std)`` of BatchNorm as one expression."""
    inv_std = 1.0 / np.sqrt(var + eps)
    x_hat = (x - mean[None, :, None, None]) * inv_std[None, :, None, None]
    y = gamma[None, :, None, None] * x_hat + beta[None, :, None, None]
    return y, x_hat, inv_std


def windows(x, kernel, stride, pad):
    """``(windows, out_h, out_w)`` over ``x`` padded with ``np.pad``."""
    n, c, h, w = x.shape
    out_h = (h + 2 * pad - kernel) // stride + 1
    out_w = (w + 2 * pad - kernel) // stride + 1
    if pad:
        x = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    s_n, s_c, s_h, s_w = x.strides
    view = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )
    return view, out_h, out_w


def im2col(x, kernel, stride, pad):
    """``(N * out_h * out_w, C * k * k)`` columns and ``(out_h, out_w)``."""
    n, c = x.shape[:2]
    view, out_h, out_w = windows(x, kernel, stride, pad)
    cols = view.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def depthwise_conv2d_forward(x, weight, stride, pad):
    """``(N, C, out_h, out_w)`` depthwise convolution, one einsum."""
    view, _, _ = windows(x, weight.shape[-1], stride, pad)
    y = np.einsum("nchwkl,ckl->nchw", view, weight, optimize=True)
    return y.astype(x.dtype, copy=False)
