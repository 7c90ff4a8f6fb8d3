"""Entropy-coding kernels for the codec hot path.

Every byte a codec emits used to flow symbol-by-symbol through pure
Python (``HuffmanTable.encode_symbol`` + per-bit ``BitWriter`` calls).
The entry points here run :mod:`repro.kernels.fast` instead: whole-plane
NumPy vectorization — symbol streams (DC diffs, zig-zag run-lengths,
ZRL/EOB insertion, magnitude categories) extracted with array ops over
the ``(n_blocks, 64)`` coefficient matrix, Huffman codes concatenated
via cumulative-sum bit offsets and packed to bytes in one pass, and
LUT-accelerated Huffman decoding through a word-buffered
:class:`~repro.codecs.bitio.BitReader`.

The original scalar loops live on as the test oracle in
``tests/kernels/reference.py``; ``tests/kernels/`` proves every entry
point bit-identical to it, and ``tests/data/golden_codecs.json`` pins
the bytes. Each entry point is also the codecs' one observability choke
point: a ``kernels.*`` span and byte/symbol counters per call.
"""

from __future__ import annotations

import zlib
from typing import List, Sequence

import numpy as np

from .. import obs
from . import fast
from .layout import scan_layout

__all__ = [
    "decode_jpeg_scan",
    "encode_jpeg_scan",
    "entropy_deflate",
    "entropy_inflate",
    "pack_coefficients",
    "png_filter_scanlines",
    "scan_layout",
    "unpack_coefficients",
]


# ----------------------------------------------------------------------
# JPEG entropy coding
# ----------------------------------------------------------------------
def encode_jpeg_scan(
    blocks: Sequence[np.ndarray],
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence,
    ac_tables: Sequence,
) -> bytes:
    """Entropy-code a whole interleaved scan; returns the finished
    entropy-coded segment (flushed with 1-bits, 0xFF-stuffed).

    ``blocks[c]`` is component ``c``'s ``(n_blocks, 64)`` zig-zag-ordered
    quantized coefficient matrix; ``comp_of_unit``/``block_of_unit`` give
    the MCU scan order (see :func:`scan_layout`); ``dc_tables`` /
    ``ac_tables`` hold one :class:`~repro.codecs.huffman.HuffmanTable`
    per component.
    """
    with obs.span("kernels.encode_jpeg_scan"):
        data = fast.encode_scan(
            blocks, comp_of_unit, block_of_unit, dc_tables, ac_tables
        )
    obs.count("kernels.jpeg.units_encoded", len(comp_of_unit))
    obs.count("kernels.jpeg.bytes_encoded", len(data))
    return data


def decode_jpeg_scan(
    reader,
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence,
    ac_tables: Sequence,
    n_blocks: Sequence[int],
) -> List[np.ndarray]:
    """Decode a whole interleaved scan from ``reader``.

    Returns one ``(n_blocks[c], 64)`` zig-zag-ordered int64 coefficient
    matrix per component.
    """
    with obs.span("kernels.decode_jpeg_scan"):
        out = fast.decode_scan(
            reader, comp_of_unit, block_of_unit, dc_tables, ac_tables, n_blocks
        )
    obs.count("kernels.jpeg.units_decoded", len(comp_of_unit))
    return out


# ----------------------------------------------------------------------
# PNG filtering
# ----------------------------------------------------------------------
def png_filter_scanlines(raw: np.ndarray) -> bytes:
    """Adaptive PNG filter search over the ``(H, W*3)`` scanline matrix.

    All five filters are evaluated for every row in whole-image array
    ops; each row keeps the minimum-sum-of-absolute-differences winner.
    """
    with obs.span("kernels.png_filter"):
        data = fast.png_filter_scanlines(raw)
    obs.count("kernels.png.bytes_filtered", raw.size)
    return data


# ----------------------------------------------------------------------
# Coefficient-stream serialization + DEFLATE (webp/heif/png entropy stage)
# ----------------------------------------------------------------------
# The stand-in webp/heif codecs and PNG entropy-code through zlib, which
# is already C-speed; these entry points exist so every codec's entropy
# stage flows through the same observability choke point (the per-layer
# benchmark times each one by name).
def pack_coefficients(values: np.ndarray) -> bytes:
    """Serialize a quantized-coefficient array as little-endian int16."""
    obs.count("kernels.coeff.symbols_packed", int(np.asarray(values).size))
    return np.asarray(values).astype("<i2").tobytes()


def unpack_coefficients(data: bytes) -> np.ndarray:
    """Inverse of :func:`pack_coefficients` (read-only view)."""
    obs.count("kernels.coeff.symbols_unpacked", len(data) // 2)
    return np.frombuffer(data, dtype="<i2")


def entropy_deflate(payload: bytes, level: int) -> bytes:
    """DEFLATE ``payload`` (the zlib-based codecs' entropy coder)."""
    with obs.span("kernels.deflate"):
        data = zlib.compress(payload, level)
    obs.count("kernels.deflate.bytes_in", len(payload))
    obs.count("kernels.deflate.bytes_out", len(data))
    return data


def entropy_inflate(data: bytes) -> bytes:
    """Inverse of :func:`entropy_deflate`.

    A truncated or corrupt stream raises ``ValueError``, the error every
    codec decoder raises for malformed input.
    """
    with obs.span("kernels.inflate"):
        try:
            payload = zlib.decompress(data)
        except zlib.error as exc:
            raise ValueError(f"corrupt DEFLATE stream: {exc}") from exc
    obs.count("kernels.inflate.bytes_out", len(payload))
    return payload
