"""A from-scratch PNG encoder and decoder (8-bit truecolor).

Implements the real PNG container — signature, IHDR/IDAT/IEND chunks with
CRC-32 — and the full filter set (None, Sub, Up, Average, Paeth) with the
standard minimum-sum-of-absolute-differences filter heuristic, over zlib
DEFLATE (the actual PNG compression method).

PNG is lossless, which matters for the reproduction: the paper's §7
finding that PNG inputs show *zero* instability across OS decoders falls
out of the format's determinism, and our implementation preserves that
property (decode is exact byte-for-byte inverse of encode).
"""

from __future__ import annotations

import struct
import zlib

import numpy as np

from ..imaging.image import ImageBuffer

# Filtering and DEFLATE run through repro.kernels. Imported as the
# package object so the codecs <-> kernels import cycle resolves in
# either order.
from .. import kernels

__all__ = ["encode_png", "decode_png", "PNG_SIGNATURE"]

PNG_SIGNATURE = b"\x89PNG\r\n\x1a\n"


def _chunk(tag: bytes, payload: bytes) -> bytes:
    crc = zlib.crc32(tag + payload) & 0xFFFFFFFF
    return struct.pack(">I", len(payload)) + tag + payload + struct.pack(">I", crc)


def _unfilter_scanlines(filtered: bytes, height: int, rowbytes: int) -> np.ndarray:
    """Invert PNG filtering; returns the ``(H, rowbytes)`` uint8 matrix."""
    bpp = 3
    raw = np.zeros((height, rowbytes), dtype=np.uint8)
    stride = rowbytes + 1
    if len(filtered) != height * stride:
        raise ValueError("filtered data length mismatch")
    prev = np.zeros(rowbytes, dtype=np.uint8)
    for r in range(height):
        ftype = filtered[r * stride]
        row = np.frombuffer(
            filtered, dtype=np.uint8, count=rowbytes, offset=r * stride + 1
        ).copy()
        if ftype == 0:
            pass
        elif ftype == 1:  # Sub — sequential on pixel axis
            for i in range(bpp, rowbytes):
                row[i] = (int(row[i]) + int(row[i - bpp])) & 0xFF
        elif ftype == 2:  # Up
            row = (row.astype(np.int16) + prev).astype(np.uint8)
        elif ftype == 3:  # Average
            for i in range(rowbytes):
                left = int(row[i - bpp]) if i >= bpp else 0
                row[i] = (int(row[i]) + (left + int(prev[i])) // 2) & 0xFF
        elif ftype == 4:  # Paeth
            for i in range(rowbytes):
                a = int(row[i - bpp]) if i >= bpp else 0
                b = int(prev[i])
                c = int(prev[i - bpp]) if i >= bpp else 0
                p = a + b - c
                pa, pb, pc = abs(p - a), abs(p - b), abs(p - c)
                pred = a if (pa <= pb and pa <= pc) else (b if pb <= pc else c)
                row[i] = (int(row[i]) + pred) & 0xFF
        else:
            raise ValueError(f"unknown PNG filter type {ftype}")
        raw[r] = row
        prev = row
    return raw


def encode_png(image: ImageBuffer, compress_level: int = 6) -> bytes:
    """Encode an :class:`ImageBuffer` as an 8-bit truecolor PNG."""
    rgb = image.to_uint8()
    height, width = rgb.shape[:2]
    raw = rgb.reshape(height, width * 3)
    filtered = kernels.png_filter_scanlines(raw)
    idat = kernels.entropy_deflate(filtered, compress_level)

    ihdr = struct.pack(">IIBBBBB", width, height, 8, 2, 0, 0, 0)
    return (
        PNG_SIGNATURE
        + _chunk(b"IHDR", ihdr)
        + _chunk(b"IDAT", idat)
        + _chunk(b"IEND", b"")
    )


def decode_png(data: bytes, verify_crc: bool = True) -> ImageBuffer:
    """Decode an 8-bit truecolor PNG produced by :func:`encode_png`.

    Handles multiple IDAT chunks and verifies chunk CRCs (disable with
    ``verify_crc=False`` for fuzzing tests).
    """
    if data[:8] != PNG_SIGNATURE:
        raise ValueError("not a PNG stream")
    pos = 8
    width = height = None
    idat = bytearray()
    while pos < len(data):
        if pos + 12 > len(data):
            raise ValueError("truncated PNG chunk header")
        length = struct.unpack(">I", data[pos : pos + 4])[0]
        if pos + 12 + length > len(data):
            raise ValueError("truncated PNG chunk")
        tag = data[pos + 4 : pos + 8]
        payload = data[pos + 8 : pos + 8 + length]
        crc = struct.unpack(">I", data[pos + 8 + length : pos + 12 + length])[0]
        if verify_crc and (zlib.crc32(tag + payload) & 0xFFFFFFFF) != crc:
            raise ValueError(f"CRC mismatch in {tag!r} chunk")
        pos += 12 + length
        if tag == b"IHDR":
            if length != 13:
                raise ValueError("IHDR chunk must be 13 bytes")
            width, height, depth, ctype, comp, filt, inter = struct.unpack(
                ">IIBBBBB", payload
            )
            if (depth, ctype, comp, filt, inter) != (8, 2, 0, 0, 0):
                raise ValueError("only 8-bit non-interlaced truecolor supported")
        elif tag == b"IDAT":
            idat += payload
        elif tag == b"IEND":
            break
    if width is None or height is None:
        raise ValueError("missing IHDR")
    filtered = kernels.entropy_inflate(bytes(idat))
    raw = _unfilter_scanlines(filtered, height, width * 3)
    rgb = raw.reshape(height, width, 3)
    return ImageBuffer.from_uint8(rgb)
