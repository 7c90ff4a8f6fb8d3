"""The scalar oracle for :mod:`repro.kernels`.

These are the per-symbol/per-row entropy-coding loops that once lived
inline in ``codecs/jpeg.py`` and ``codecs/png.py``. Slow and obviously
correct, they are what the vectorized kernels are proven bit-identical
against (``test_equivalence.py``, ``test_golden.py``,
``tests/codecs/test_jpeg_batch.py``, ``tests/kernels/test_bench.py``).
"""

from __future__ import annotations

import struct
import zlib
from typing import List, Sequence, Tuple

import numpy as np

from repro.codecs.bitio import BitReader, BitWriter
from repro.codecs.huffman import HuffmanTable

__all__ = [
    "bit_size",
    "decode_block",
    "decode_scan",
    "encode_block",
    "encode_scan",
    "entropy_deflate",
    "entropy_inflate",
    "pack_coefficients",
    "paeth_predictor",
    "png_filter_scanlines",
    "unpack_coefficients",
]


# ----------------------------------------------------------------------
# JPEG entropy coding (per-block, per-symbol)
# ----------------------------------------------------------------------
def bit_size(value: int) -> int:
    """JPEG magnitude category: smallest s with |value| < 2^s."""
    return int(abs(value)).bit_length()


def _encode_coefficient_bits(writer: BitWriter, value: int, size: int) -> None:
    if size == 0:
        return
    coded = value + (1 << size) - 1 if value < 0 else value
    writer.write_bits(coded, size)


def _decode_coefficient_bits(reader: BitReader, size: int) -> int:
    if size == 0:
        return 0
    raw = reader.read_bits(size)
    if raw < (1 << (size - 1)):
        raw -= (1 << size) - 1
    return raw


def encode_block(
    writer: BitWriter,
    coeffs_zz: np.ndarray,
    dc_pred: int,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
) -> int:
    """Entropy-code one zig-zag-ordered quantized block; returns new DC."""
    dc = int(coeffs_zz[0])
    diff = dc - dc_pred
    size = bit_size(diff)
    dc_table.encode_symbol(writer, size)
    _encode_coefficient_bits(writer, diff, size)

    run = 0
    last_nonzero = int(np.max(np.nonzero(coeffs_zz)[0])) if np.any(coeffs_zz[1:]) else 0
    for idx in range(1, 64):
        val = int(coeffs_zz[idx])
        if val == 0:
            run += 1
            continue
        while run >= 16:
            ac_table.encode_symbol(writer, 0xF0)  # ZRL
            run -= 16
        size = bit_size(val)
        ac_table.encode_symbol(writer, (run << 4) | size)
        _encode_coefficient_bits(writer, val, size)
        run = 0
        if idx == last_nonzero:
            break
    if last_nonzero < 63:
        ac_table.encode_symbol(writer, 0x00)  # EOB
    return dc


def decode_block(
    reader: BitReader,
    dc_pred: int,
    dc_table: HuffmanTable,
    ac_table: HuffmanTable,
) -> Tuple[np.ndarray, int]:
    """Decode one block into zig-zag order; returns (coeffs, new DC)."""
    coeffs = np.zeros(64, dtype=np.int64)
    size = dc_table.decode_symbol(reader)
    dc = dc_pred + _decode_coefficient_bits(reader, size)
    coeffs[0] = dc
    idx = 1
    while idx < 64:
        symbol = ac_table.decode_symbol(reader)
        if symbol == 0x00:  # EOB
            break
        if symbol == 0xF0:  # ZRL
            idx += 16
            continue
        run, size = symbol >> 4, symbol & 0x0F
        idx += run
        if idx >= 64:
            raise ValueError("AC run overflows block")
        coeffs[idx] = _decode_coefficient_bits(reader, size)
        idx += 1
    return coeffs, dc


def encode_scan(
    blocks: Sequence[np.ndarray],
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence[HuffmanTable],
    ac_tables: Sequence[HuffmanTable],
) -> bytes:
    """Scalar scan encoder: one :func:`encode_block` call per unit."""
    writer = BitWriter(stuff_ff=True)
    preds = [0] * len(blocks)
    for unit, comp in enumerate(comp_of_unit):
        comp = int(comp)
        coeffs = blocks[comp][int(block_of_unit[unit])]
        preds[comp] = encode_block(
            writer, coeffs, preds[comp], dc_tables[comp], ac_tables[comp]
        )
    writer.flush(fill_bit=1)
    return writer.getvalue()


def decode_scan(
    reader: BitReader,
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence[HuffmanTable],
    ac_tables: Sequence[HuffmanTable],
    n_blocks: Sequence[int],
) -> List[np.ndarray]:
    """Scalar scan decoder: one :func:`decode_block` call per unit."""
    out = [np.zeros((n, 64), dtype=np.int64) for n in n_blocks]
    preds = [0] * len(out)
    for unit, comp in enumerate(comp_of_unit):
        comp = int(comp)
        coeffs, preds[comp] = decode_block(
            reader, preds[comp], dc_tables[comp], ac_tables[comp]
        )
        out[comp][int(block_of_unit[unit])] = coeffs
    return out


# ----------------------------------------------------------------------
# PNG adaptive filtering (per-row)
# ----------------------------------------------------------------------
def paeth_predictor(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Vectorized Paeth predictor over int16-compatible arrays."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)


def png_filter_scanlines(raw: np.ndarray) -> bytes:
    """Per-row adaptive filtering; returns the filtered byte stream.

    ``raw`` is the ``(H, W*3)`` uint8 scanline matrix. For each row all
    five filters are evaluated and the one minimizing the sum of absolute
    values (interpreting bytes as signed) is chosen — the heuristic
    recommended by the PNG specification and used by libpng.
    """
    height, rowbytes = raw.shape
    bpp = 3
    prev = np.zeros(rowbytes, dtype=np.uint8)
    out = bytearray()
    for r in range(height):
        row = raw[r]
        left = np.concatenate([np.zeros(bpp, dtype=np.uint8), row[:-bpp]])
        upleft = np.concatenate([np.zeros(bpp, dtype=np.uint8), prev[:-bpp]])

        candidates = (
            row,  # None
            (row.astype(np.int16) - left).astype(np.uint8),  # Sub
            (row.astype(np.int16) - prev).astype(np.uint8),  # Up
            (row.astype(np.int16) - ((left.astype(np.int16) + prev) // 2)).astype(np.uint8),  # Average
            (row.astype(np.int16) - paeth_predictor(left, prev, upleft)).astype(np.uint8),  # Paeth
        )
        costs = [
            int(np.abs(c.astype(np.int8).astype(np.int32)).sum()) for c in candidates
        ]
        best = int(np.argmin(costs))
        out.append(best)
        out += candidates[best].tobytes()
        prev = row
    return bytes(out)


# ----------------------------------------------------------------------
# Coefficient serialization + DEFLATE (per value / the plain zlib call)
# ----------------------------------------------------------------------
def pack_coefficients(values: np.ndarray) -> bytes:
    """Per-value little-endian int16 serialization."""
    return b"".join(struct.pack("<h", int(v)) for v in np.ravel(values))


def unpack_coefficients(data: bytes) -> List[int]:
    """Inverse of :func:`pack_coefficients`."""
    return [value for (value,) in struct.iter_unpack("<h", data)]


def entropy_deflate(payload: bytes, level: int) -> bytes:
    return zlib.compress(payload, level)


def entropy_inflate(data: bytes) -> bytes:
    return zlib.decompress(data)
