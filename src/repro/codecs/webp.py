"""A WebP-style lossy codec: intra block prediction + transform residuals.

This is not bit-compatible VP8 (that would be thousands of lines of
arithmetic-coder tables), but it follows VP8's *architecture*, which is
what matters for reproducing the paper: prediction from reconstructed
neighbours, a transform over the *residual*, a flat quantizer, and a
shared entropy backend. The artefacts it produces — prediction-edge
discontinuities, flat-quant ringing — are characteristically different
from JPEG's, so images round-tripped through "webp" and "jpeg" genuinely
diverge, which is the mechanism behind the paper's Table 3 cross-format
instability (9.66%).

Bitstream layout (magic ``RPWB``)::

    RPWB | u16 width | u16 height | u8 quality |
    zlib( mode bytes per block-plane ++ int16 coefficient stream )
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Tuple

import numpy as np

from ..imaging.color import rgb_to_ycbcr, ycbcr_to_rgb
from ..imaging.image import ImageBuffer
from .dct import block_dct, block_idct
from .jpeg import _pad_planes, _subsample_420, _upsample_2x_bilinear

# Coefficient serialization and DEFLATE dispatch through repro.kernels.
from .. import kernels

__all__ = ["encode_webp", "decode_webp"]

MAGIC = b"RPWB"
_BLOCK = 8

# Prediction modes.
_MODE_DC = 0
_MODE_HORIZONTAL = 1
_MODE_VERTICAL = 2


def _quality_to_step(quality: int, chroma: bool) -> float:
    """Map quality 1..100 to a flat quantizer step.

    Roughly exponential, like VP8's quantizer index table; chroma is
    quantized ~40% more coarsely.
    """
    if not 1 <= quality <= 100:
        raise ValueError("quality must be in 1..100")
    step = 60.0 * np.exp(-0.045 * quality) + 0.8
    return step * (1.4 if chroma else 1.0)


def _predict(recon: np.ndarray, by: int, bx: int, mode: int) -> np.ndarray:
    """Predict one block from already-reconstructed neighbours."""
    b = _BLOCK
    top = recon[by - 1, bx * b : (bx + 1) * b] if by > 0 else None
    left = recon[by * b : (by + 1) * b, bx * b - 1] if bx > 0 else None
    if mode == _MODE_DC:
        vals = []
        if top is not None:
            vals.append(top.mean())
        if left is not None:
            vals.append(left.mean())
        fill = np.mean(vals) if vals else 128.0
        return np.full((b, b), fill)
    if mode == _MODE_HORIZONTAL:
        if left is None:
            return np.full((b, b), 128.0)
        return np.tile(left.reshape(-1, 1), (1, b))
    if mode == _MODE_VERTICAL:
        if top is None:
            return np.full((b, b), 128.0)
        return np.tile(top.reshape(1, -1), (b, 1))
    raise ValueError(f"unknown prediction mode {mode}")


def _encode_plane(plane: np.ndarray, step: float) -> Tuple[bytes, np.ndarray]:
    """Encode one plane; returns (mode_bytes + coeff int16 LE bytes, recon)."""
    h, w = plane.shape
    rows, cols = h // _BLOCK, w // _BLOCK
    recon = np.zeros_like(plane)
    modes = bytearray()
    coeffs_out: List[np.ndarray] = []
    for by in range(rows):
        for bx in range(cols):
            block = plane[
                by * _BLOCK : (by + 1) * _BLOCK, bx * _BLOCK : (bx + 1) * _BLOCK
            ]
            # Pick the mode minimizing residual energy against the
            # *reconstructed* neighbours (the decoder sees the same data).
            best_mode, best_pred, best_cost = 0, None, None
            for mode in (_MODE_DC, _MODE_HORIZONTAL, _MODE_VERTICAL):
                pred = _predict(recon, by, bx, mode)
                cost = float(np.abs(block - pred).sum())
                if best_cost is None or cost < best_cost:
                    best_mode, best_pred, best_cost = mode, pred, cost
            residual = block - best_pred
            coefs = block_dct(residual[None])[0]
            quantized = np.round(coefs / step).astype(np.int16)
            coeffs_out.append(quantized.reshape(-1))
            dequant = quantized.astype(np.float64) * step
            rec_block = best_pred + block_idct(dequant[None])[0]
            recon[
                by * _BLOCK : (by + 1) * _BLOCK, bx * _BLOCK : (bx + 1) * _BLOCK
            ] = np.clip(rec_block, 0.0, 255.0)
            modes.append(best_mode)
    coeff_bytes = kernels.pack_coefficients(np.concatenate(coeffs_out))
    return bytes(modes) + coeff_bytes, recon


def _decode_plane(
    modes: bytes, coeffs: np.ndarray, h: int, w: int, step: float
) -> np.ndarray:
    rows, cols = h // _BLOCK, w // _BLOCK
    recon = np.zeros((h, w), dtype=np.float64)
    per_block = _BLOCK * _BLOCK
    for i, (by, bx) in enumerate(
        (by, bx) for by in range(rows) for bx in range(cols)
    ):
        pred = _predict(recon, by, bx, modes[i])
        block_coefs = coeffs[i * per_block : (i + 1) * per_block].astype(np.float64)
        residual = block_idct((block_coefs * step).reshape(1, _BLOCK, _BLOCK))[0]
        recon[
            by * _BLOCK : (by + 1) * _BLOCK, bx * _BLOCK : (bx + 1) * _BLOCK
        ] = np.clip(pred + residual, 0.0, 255.0)
    return recon


def encode_webp(image: ImageBuffer, quality: int = 75) -> bytes:
    """Encode with the WebP-like predictive codec (4:2:0, 8x8 transform)."""
    rgb255 = image.to_uint8().astype(np.float64)
    ycc = rgb_to_ycbcr(rgb255 / 255.0)[None]  # a stack of one for the plane ops
    y_plane = _pad_planes(ycc[..., 0] * 255.0, 16)[0]
    cb = _pad_planes(_subsample_420(_pad_planes(ycc[..., 1] * 255.0 + 128.0, 2)), 8)[0]
    cr = _pad_planes(_subsample_420(_pad_planes(ycc[..., 2] * 255.0 + 128.0, 2)), 8)[0]

    y_step = _quality_to_step(quality, chroma=False)
    c_step = _quality_to_step(quality, chroma=True)
    payload = bytearray()
    for plane, step in ((y_plane, y_step), (cb, c_step), (cr, c_step)):
        encoded, _ = _encode_plane(plane, step)
        payload += struct.pack("<HHI", plane.shape[0], plane.shape[1], len(encoded))
        payload += encoded

    header = MAGIC + struct.pack("<HHB", image.width, image.height, quality)
    return header + kernels.entropy_deflate(bytes(payload), 6)


def decode_webp(data: bytes) -> ImageBuffer:
    """Decode a stream produced by :func:`encode_webp`."""
    if data[:4] != MAGIC:
        raise ValueError("not an RPWB (webp-like) stream")
    if len(data) < 9:
        raise ValueError("truncated RPWB header")
    width, height, quality = struct.unpack("<HHB", data[4:9])
    payload = kernels.entropy_inflate(data[9:])

    y_step = _quality_to_step(quality, chroma=False)
    c_step = _quality_to_step(quality, chroma=True)
    planes = []
    pos = 0
    for step in (y_step, c_step, c_step):
        ph, pw, length = struct.unpack("<HHI", payload[pos : pos + 8])
        pos += 8
        chunk = payload[pos : pos + length]
        pos += length
        n_blocks = (ph // _BLOCK) * (pw // _BLOCK)
        modes = chunk[:n_blocks]
        coeffs = kernels.unpack_coefficients(chunk[n_blocks:])
        planes.append(_decode_plane(modes, coeffs, ph, pw, step))

    y_plane, cb, cr = planes
    cb = _upsample_2x_bilinear(cb[None])[0]
    cr = _upsample_2x_bilinear(cr[None])[0]
    y_plane = y_plane[:height, :width]
    cb = cb[:height, :width]
    cr = cr[:height, :width]
    ycc = np.stack(
        [y_plane / 255.0, (cb - 128.0) / 255.0, (cr - 128.0) / 255.0], axis=-1
    )
    rgb = np.clip(ycbcr_to_rgb(ycc), 0.0, 1.0)
    rgb8 = np.floor(rgb * 255.0 + 0.5).astype(np.uint8)
    return ImageBuffer.from_uint8(rgb8)
