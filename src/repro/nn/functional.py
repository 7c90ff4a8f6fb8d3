"""Low-level neural-network primitives (NCHW layout, float32).

Convolutions are expressed as im2col + GEMM so the heavy lifting happens
inside BLAS, per the vectorize-first rule for NumPy ML systems. Depthwise
convolution keeps its channel-diagonal structure instead: one batched
matmul per channel of its ``k*k`` taps against that channel's windows
(im2col would shred the diagonal). Padding is a zero buffer and a slice
assignment, the bytes ``np.pad`` writes at a fraction of its cost.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = [
    "im2col",
    "col2im",
    "conv2d_forward",
    "conv2d_backward",
    "depthwise_conv2d_forward",
    "depthwise_conv2d_backward",
    "global_avg_pool_forward",
    "global_avg_pool_backward",
    "softmax",
    "log_softmax",
]


def _out_size(size: int, kernel: int, stride: int, pad: int) -> int:
    return (size + 2 * pad - kernel) // stride + 1


def _pad(x: np.ndarray, pad: int) -> np.ndarray:
    """``x`` zero-padded by ``pad`` on both sides of H and W (C-contiguous)."""
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _windows(
    xp: np.ndarray, kernel: int, stride: int, out_h: int, out_w: int
) -> np.ndarray:
    """Read-only ``(N, C, out_h, out_w, k, k)`` view of the windows of ``xp``."""
    n, c = xp.shape[:2]
    s_n, s_c, s_h, s_w = xp.strides
    return np.lib.stride_tricks.as_strided(
        xp,
        shape=(n, c, out_h, out_w, kernel, kernel),
        strides=(s_n, s_c, s_h * stride, s_w * stride, s_h, s_w),
        writeable=False,
    )


def im2col(
    x: np.ndarray, kernel: int, stride: int, pad: int
) -> Tuple[np.ndarray, Tuple[int, int]]:
    """Unfold ``(N, C, H, W)`` into ``(N * out_h * out_w, C * k * k)`` columns.

    Returns the column matrix and the output spatial size.
    """
    n, c, h, w = x.shape
    out_h = _out_size(h, kernel, stride, pad)
    out_w = _out_size(w, kernel, stride, pad)
    if out_h <= 0 or out_w <= 0:
        raise ValueError(
            f"conv output collapsed: input {h}x{w}, kernel {kernel}, stride {stride}"
        )
    windows = _windows(_pad(x, pad) if pad else x, kernel, stride, out_h, out_w)
    cols = windows.transpose(0, 2, 3, 1, 4, 5).reshape(
        n * out_h * out_w, c * kernel * kernel
    )
    return np.ascontiguousarray(cols), (out_h, out_w)


def col2im(
    cols: np.ndarray,
    x_shape: Tuple[int, int, int, int],
    kernel: int,
    stride: int,
    pad: int,
) -> np.ndarray:
    """Fold column gradients back to the input shape (adjoint of im2col)."""
    n, c, h, w = x_shape
    out_h = _out_size(h, kernel, stride, pad)
    out_w = _out_size(w, kernel, stride, pad)
    padded = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=cols.dtype)
    cols6 = cols.reshape(n, out_h, out_w, c, kernel, kernel).transpose(
        0, 3, 1, 2, 4, 5
    )
    for ky in range(kernel):
        y_end = ky + stride * out_h
        for kx in range(kernel):
            x_end = kx + stride * out_w
            padded[:, :, ky:y_end:stride, kx:x_end:stride] += cols6[:, :, :, :, ky, kx]
    if pad:
        return padded[:, :, pad:-pad, pad:-pad]
    return padded


def conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, pad: int
):
    """Standard convolution. ``weight`` is ``(out_c, in_c, k, k)``.

    Returns ``(y, cache)``; pass the cache to :func:`conv2d_backward`.
    """
    out_c, in_c, k, _ = weight.shape
    n = x.shape[0]
    cols, (out_h, out_w) = im2col(x, k, stride, pad)
    w_mat = weight.reshape(out_c, -1)
    y = cols @ w_mat.T
    if bias is not None:
        y += bias
    y = y.reshape(n, out_h, out_w, out_c).transpose(0, 3, 1, 2)
    cache = (cols, x.shape, weight, stride, pad)
    return np.ascontiguousarray(y), cache


def conv2d_backward(dy: np.ndarray, cache):
    """Gradients of conv2d w.r.t. input, weight, and bias."""
    cols, x_shape, weight, stride, pad = cache
    out_c, _, k, _ = weight.shape
    dy_mat = dy.transpose(0, 2, 3, 1).reshape(-1, out_c)
    dw = (dy_mat.T @ cols).reshape(weight.shape)
    db = dy_mat.sum(axis=0)
    dcols = dy_mat @ weight.reshape(out_c, -1)
    dx = col2im(dcols, x_shape, k, stride, pad)
    return dx, dw, db


def depthwise_conv2d_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None, stride: int, pad: int
):
    """Depthwise convolution. ``weight`` is ``(C, k, k)``.

    ``einsum("nchwkl,ckl->nchw", optimize=True)`` pops its operands in
    reverse and contracts ``ckl,nchwkl->nchw`` as the batched matmul
    ``(C, 1, k*k) @ (C, k*k, N*out_h*out_w)``; this is that call, with
    the same operand order and layout and so the same bits, without the
    path search.
    """
    c, k, _ = weight.shape
    n, xc, h, w = x.shape
    if xc != c:
        raise ValueError(f"depthwise channel mismatch: input {xc}, weight {c}")
    out_h = _out_size(h, k, stride, pad)
    out_w = _out_size(w, k, stride, pad)
    windows = _windows(_pad(x, pad) if pad else x, k, stride, out_h, out_w)
    taps = windows.transpose(1, 4, 5, 0, 2, 3).reshape(c, k * k, n * out_h * out_w)
    y = weight.reshape(c, 1, k * k) @ taps
    y = y.reshape(c, n, out_h, out_w).transpose(1, 0, 2, 3)
    if bias is not None:
        y += bias[None, :, None, None]
    cache = (windows, x.shape, weight, stride, pad)
    return y.astype(x.dtype, copy=False), cache


def depthwise_conv2d_backward(dy: np.ndarray, cache):
    """Gradients of depthwise conv w.r.t. input, weight, bias."""
    windows, x_shape, weight, stride, pad = cache
    c, k, _ = weight.shape
    n, _, h, w = x_shape
    dw = np.einsum("nchwkl,nchw->ckl", windows, dy, optimize=True)
    db = dy.sum(axis=(0, 2, 3))

    # dx: scatter dy * weight back over the windows.
    out_h, out_w = dy.shape[2], dy.shape[3]
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dy.dtype)
    contrib = np.einsum("nchw,ckl->nchwkl", dy, weight, optimize=True)
    for ky in range(k):
        y_end = ky + stride * out_h
        for kx in range(k):
            x_end = kx + stride * out_w
            dxp[:, :, ky:y_end:stride, kx:x_end:stride] += contrib[:, :, :, :, ky, kx]
    dx = dxp[:, :, pad : pad + h, pad : pad + w] if pad else dxp
    return dx, dw, db


def global_avg_pool_forward(x: np.ndarray):
    """Mean over the spatial dims: ``(N, C, H, W) -> (N, C)``."""
    y = x.mean(axis=(2, 3))
    return y, x.shape


def global_avg_pool_backward(dy: np.ndarray, x_shape):
    n, c, h, w = x_shape
    return np.broadcast_to(dy[:, :, None, None], x_shape) / (h * w)


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically-stable softmax."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = logits - logits.max(axis=axis, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
