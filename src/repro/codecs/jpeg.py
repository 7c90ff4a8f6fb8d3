"""A from-scratch baseline JPEG (JFIF) encoder and decoder.

Implements the real ITU T.81 baseline path:

* full-range BT.601 RGB -> YCbCr,
* optional 4:2:0 chroma subsampling with interleaved MCUs,
* 8x8 orthonormal DCT, quality-scaled Annex K quantization tables,
* zig-zag scan, DC prediction, run/size AC coding,
* canonical Huffman entropy coding with the Annex K.3 tables,
* a proper marker stream (SOI, APP0/JFIF, DQT, SOF0, DHT, SOS, EOI)
  with 0xFF byte stuffing inside the entropy-coded segment.

The decoder is parameterized by :class:`JpegDecodeOptions` — the IDCT
implementation (float vs. fixed-point), final rounding mode, and chroma
upsampling filter. Those are exactly the degrees of freedom along which
real OS/vendor JPEG decoders differ, and they power the paper's §7
experiment (two phones in the Firebase fleet decode the same bytes to
different pixels, yielding 0.64% instability; PNG shows none).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..imaging.color import rgb_to_ycbcr, ycbcr_to_rgb
from ..imaging.image import ImageBuffer
from ..lint.contracts import tensor_contract
from .bitio import BitReader
from .dct import (
    block_dct,
    block_idct,
    block_idct_fixed_point,
    blockify,
    unblockify,
    zigzag_order,
)
from .huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    HuffmanTable,
)

# Entropy coding is dispatched through repro.kernels (reference or fast
# backend, bit-identical). Imported as the package object and accessed by
# attribute at call time so the codecs <-> kernels import cycle resolves
# in either order.
from .. import kernels

__all__ = [
    "encode_jpeg",
    "decode_jpeg",
    "jpeg_roundtrip_batch",
    "JpegDecodeOptions",
    "quality_scaled_tables",
    "BASE_LUMA_QUANT",
    "BASE_CHROMA_QUANT",
]

# ITU T.81 Annex K.1 / K.2 base quantization tables.
BASE_LUMA_QUANT = np.array(
    [
        [16, 11, 10, 16, 24, 40, 51, 61],
        [12, 12, 14, 19, 26, 58, 60, 55],
        [14, 13, 16, 24, 40, 57, 69, 56],
        [14, 17, 22, 29, 51, 87, 80, 62],
        [18, 22, 37, 56, 68, 109, 103, 77],
        [24, 35, 55, 64, 81, 104, 113, 92],
        [49, 64, 78, 87, 103, 121, 120, 101],
        [72, 92, 95, 98, 112, 100, 103, 99],
    ],
    dtype=np.int64,
)

BASE_CHROMA_QUANT = np.array(
    [
        [17, 18, 24, 47, 99, 99, 99, 99],
        [18, 21, 26, 66, 99, 99, 99, 99],
        [24, 26, 56, 99, 99, 99, 99, 99],
        [47, 66, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
        [99, 99, 99, 99, 99, 99, 99, 99],
    ],
    dtype=np.int64,
)


@lru_cache(maxsize=None)
def quality_scaled_tables(quality: int) -> Tuple[np.ndarray, np.ndarray]:
    """Scale the Annex K tables by the libjpeg/IJG quality convention.

    ``quality`` 1..100; 50 leaves the base tables unchanged, 100 gives
    near-lossless (all ones at exactly 100). Results are cached per
    quality and returned read-only so the shared arrays cannot be
    mutated through the cache.
    """
    if not 1 <= quality <= 100:
        raise ValueError("JPEG quality must be in 1..100")
    if quality < 50:
        scale = 5000 // quality
    else:
        scale = 200 - 2 * quality
    luma = np.clip((BASE_LUMA_QUANT * scale + 50) // 100, 1, 255).astype(np.int64)
    chroma = np.clip((BASE_CHROMA_QUANT * scale + 50) // 100, 1, 255).astype(np.int64)
    luma.setflags(write=False)
    chroma.setflags(write=False)
    return luma, chroma


# ----------------------------------------------------------------------
# Plane <-> quantized blocks
# ----------------------------------------------------------------------
def _plane_to_quantized_blocks(plane: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Level-shift, DCT, and quantize a padded plane into zig-zag blocks."""
    blocks = blockify(np.asarray(plane, dtype=np.float64) - 128.0, 8)
    coeffs = block_dct(blocks)
    quantized = np.round(coeffs / quant[None]).astype(np.int64)
    zz = zigzag_order(8)
    return quantized.reshape(-1, 64)[:, zz]


def _quantized_blocks_to_plane(
    blocks_zz: np.ndarray,
    quant: np.ndarray,
    height: int,
    width: int,
    idct: str,
) -> np.ndarray:
    """Dequantize, inverse-DCT, and reassemble a plane (values 0..255)."""
    zz = zigzag_order(8)
    raster = np.empty_like(blocks_zz)
    raster[:, zz] = blocks_zz
    coeffs = raster.reshape(-1, 8, 8).astype(np.float64) * quant[None]
    if idct == "float":
        spatial = block_idct(coeffs)
    elif idct == "fixed11":
        spatial = block_idct_fixed_point(coeffs, fraction_bits=11)
    elif idct == "fixed8":
        spatial = block_idct_fixed_point(coeffs, fraction_bits=8)
    else:
        raise ValueError(f"unknown IDCT variant {idct!r}")
    plane = unblockify(spatial, height, width) + 128.0
    return plane


def _pad_plane(plane: np.ndarray, multiple: int) -> np.ndarray:
    h, w = plane.shape
    pad_h = (-h) % multiple
    pad_w = (-w) % multiple
    if pad_h or pad_w:
        plane = np.pad(plane, ((0, pad_h), (0, pad_w)), mode="edge")
    return plane


def _subsample_420(plane: np.ndarray) -> np.ndarray:
    """2x2 box-average chroma downsampling (even dims required).

    The explicit sum reproduces ``.mean(axis=(1, 3))`` bit-for-bit
    (same reduce order, and ``* 0.25`` is exact) at half the cost.
    """
    a = plane[0::2, 0::2]
    b = plane[0::2, 1::2]
    c = plane[1::2, 0::2]
    d = plane[1::2, 1::2]
    return ((a + b) + (c + d)) * 0.25


def _planes_to_quantized_blocks_batch(planes: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Batched :func:`_plane_to_quantized_blocks` over ``(N, H, W)`` planes.

    Deliberately not ``@tensor_contract``-annotated: the batch axis is
    folded into the block axis before the DCT (each 8x8 block transforms
    independently, so any leading-dim grouping is bit-identical — the
    property the codec batch tests pin), which SHAPE001's conservative
    reshape rule cannot prove.
    """
    n, h, w = planes.shape
    shifted = np.asarray(planes, dtype=np.float64) - 128.0
    blocks = (
        shifted.reshape(n, h // 8, 8, w // 8, 8)
        .transpose(0, 1, 3, 2, 4)
        .reshape(n * (h // 8) * (w // 8), 8, 8)
    )
    coeffs = block_dct(blocks)
    quantized = np.round(coeffs / quant[None]).astype(np.int64)
    zz = zigzag_order(8)
    return quantized.reshape(n, -1, 64)[:, :, zz]


def _quantized_blocks_to_planes_batch(
    blocks_zz: np.ndarray,
    quant: np.ndarray,
    height: int,
    width: int,
    idct: str,
) -> np.ndarray:
    """Batched :func:`_quantized_blocks_to_plane` over ``(N, nb, 64)`` blocks.

    Not contract-annotated for the same reason as the encoder-side helper:
    the block axis absorbs the batch axis around the (per-block
    independent) IDCT.
    """
    n = blocks_zz.shape[0]
    zz = zigzag_order(8)
    raster = np.empty_like(blocks_zz)
    raster[:, :, zz] = blocks_zz
    coeffs = raster.reshape(-1, 8, 8).astype(np.float64) * quant[None]
    if idct == "float":
        spatial = block_idct(coeffs)
    elif idct == "fixed11":
        spatial = block_idct_fixed_point(coeffs, fraction_bits=11)
    elif idct == "fixed8":
        spatial = block_idct_fixed_point(coeffs, fraction_bits=8)
    else:
        raise ValueError(f"unknown IDCT variant {idct!r}")
    rows, cols = height // 8, width // 8
    planes = (
        spatial.reshape(n, rows, cols, 8, 8)
        .transpose(0, 1, 3, 2, 4)
        .reshape(n, height, width)
    )
    return planes + 128.0


@tensor_contract("(N, ?, ?) float64, _ -> (N, ?, ?) float64")
def _pad_planes_batch(planes: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-pad each plane of an ``(N, H, W)`` stack to a dim multiple."""
    _n, h, w = planes.shape
    pad_h = (-h) % multiple
    pad_w = (-w) % multiple
    if pad_h or pad_w:
        planes = np.pad(planes, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    return planes


@tensor_contract("(N, ?, ?) float64 -> (N, ?, ?) float64")
def _subsample_420_batch(planes: np.ndarray) -> np.ndarray:
    """Batched :func:`_subsample_420` over ``(N, H, W)`` chroma planes."""
    a = planes[:, 0::2, 0::2]
    b = planes[:, 0::2, 1::2]
    c = planes[:, 1::2, 0::2]
    d = planes[:, 1::2, 1::2]
    return ((a + b) + (c + d)) * 0.25


def _upsample_2x_nearest(plane: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(plane, 2, axis=0), 2, axis=1)


def _upsample_2x_bilinear(plane: np.ndarray) -> np.ndarray:
    """Triangle-filter ("fancy") chroma upsampling a la libjpeg."""
    h, w = plane.shape
    padded = np.pad(plane, 1, mode="edge")
    out = np.empty((2 * h, 2 * w), dtype=plane.dtype)
    # Each output sample mixes the nearest chroma sample (weight 3) with the
    # neighbour on each axis (weight 1) -> weights 9/3/3/1 over 16.
    c = padded[1:-1, 1:-1]
    up = padded[:-2, 1:-1]
    down = padded[2:, 1:-1]
    left = padded[1:-1, :-2]
    right = padded[1:-1, 2:]
    ul = padded[:-2, :-2]
    ur = padded[:-2, 2:]
    dl = padded[2:, :-2]
    dr = padded[2:, 2:]
    out[0::2, 0::2] = (9 * c + 3 * up + 3 * left + ul) / 16.0
    out[0::2, 1::2] = (9 * c + 3 * up + 3 * right + ur) / 16.0
    out[1::2, 0::2] = (9 * c + 3 * down + 3 * left + dl) / 16.0
    out[1::2, 1::2] = (9 * c + 3 * down + 3 * right + dr) / 16.0
    return out


@tensor_contract("(N, ?, ?) float64 -> (N, ?, ?) float64")
def _upsample_2x_nearest_batch(planes: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(planes, 2, axis=1), 2, axis=2)


@tensor_contract("(N, ?, ?) float64 -> (N, ?, ?) float64")
def _upsample_2x_bilinear_batch(planes: np.ndarray) -> np.ndarray:
    """Batched :func:`_upsample_2x_bilinear` over ``(N, H, W)`` planes."""
    n, h, w = planes.shape
    padded = np.pad(planes, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.empty((n, 2 * h, 2 * w), dtype=planes.dtype)
    c = padded[:, 1:-1, 1:-1]
    up = padded[:, :-2, 1:-1]
    down = padded[:, 2:, 1:-1]
    left = padded[:, 1:-1, :-2]
    right = padded[:, 1:-1, 2:]
    ul = padded[:, :-2, :-2]
    ur = padded[:, :-2, 2:]
    dl = padded[:, 2:, :-2]
    dr = padded[:, 2:, 2:]
    out[:, 0::2, 0::2] = (9 * c + 3 * up + 3 * left + ul) / 16.0
    out[:, 0::2, 1::2] = (9 * c + 3 * up + 3 * right + ur) / 16.0
    out[:, 1::2, 0::2] = (9 * c + 3 * down + 3 * left + dl) / 16.0
    out[:, 1::2, 1::2] = (9 * c + 3 * down + 3 * right + dr) / 16.0
    return out


# ----------------------------------------------------------------------
# Marker segment writers
# ----------------------------------------------------------------------
def _segment(marker: int, payload: bytes) -> bytes:
    return struct.pack(">BBH", 0xFF, marker, len(payload) + 2) + payload


def _dqt_segment(table_id: int, quant: np.ndarray) -> bytes:
    zz = zigzag_order(8)
    body = bytes([table_id]) + bytes(int(v) for v in quant.reshape(64)[zz])
    return _segment(0xDB, body)


def _dht_segment(table_class: int, table_id: int, table: HuffmanTable) -> bytes:
    body = bytes([(table_class << 4) | table_id])
    body += bytes(table.bits)
    body += bytes(table.values)
    return _segment(0xC4, body)


_APP0_JFIF = _segment(0xE0, b"JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def encode_jpeg(
    image: ImageBuffer,
    quality: int = 85,
    subsampling: str = "4:2:0",
) -> bytes:
    """Encode an :class:`ImageBuffer` as a baseline JFIF byte stream.

    Parameters
    ----------
    image:
        RGB image; values are clipped to [0, 1] then quantized to 8 bits.
    quality:
        IJG-convention quality factor in 1..100.
    subsampling:
        ``"4:2:0"`` (default, what phone camera pipelines emit) or
        ``"4:4:4"``.
    """
    if subsampling not in ("4:2:0", "4:4:4"):
        raise ValueError(f"unsupported subsampling {subsampling!r}")
    luma_q, chroma_q = quality_scaled_tables(quality)

    rgb255 = image.to_uint8().astype(np.float64)
    ycc = np.asarray(rgb_to_ycbcr(rgb255 / 255.0), dtype=np.float64)
    y_plane = ycc[..., 0] * 255.0
    cb_plane = ycc[..., 1] * 255.0 + 128.0
    cr_plane = ycc[..., 2] * 255.0 + 128.0

    height, width = y_plane.shape
    if subsampling == "4:2:0":
        mcu = 16
        y_pad = _pad_plane(y_plane, mcu)
        cb_small = _subsample_420(_pad_plane(cb_plane, 2))
        cr_small = _subsample_420(_pad_plane(cr_plane, 2))
        cb_pad = _pad_plane(cb_small, 8)
        cr_pad = _pad_plane(cr_small, 8)
        h_samp, v_samp = 2, 2
    else:
        mcu = 8
        y_pad = _pad_plane(y_plane, mcu)
        cb_pad = _pad_plane(cb_plane, 8)
        cr_pad = _pad_plane(cr_plane, 8)
        h_samp, v_samp = 1, 1

    y_blocks = _plane_to_quantized_blocks(y_pad, luma_q)
    cb_blocks = _plane_to_quantized_blocks(cb_pad, chroma_q)
    cr_blocks = _plane_to_quantized_blocks(cr_pad, chroma_q)

    mcu_rows = y_pad.shape[0] // mcu
    mcu_cols = y_pad.shape[1] // mcu
    samplings = ((h_samp, v_samp), (1, 1), (1, 1))
    comp_of_unit, block_of_unit = kernels.scan_layout(mcu_rows, mcu_cols, samplings)
    entropy = kernels.encode_jpeg_scan(
        (y_blocks, cb_blocks, cr_blocks),
        comp_of_unit,
        block_of_unit,
        (STD_DC_LUMA, STD_DC_CHROMA, STD_DC_CHROMA),
        (STD_AC_LUMA, STD_AC_CHROMA, STD_AC_CHROMA),
    )

    sof = struct.pack(
        ">BHHB", 8, height, width, 3
    ) + bytes(
        [
            1, (h_samp << 4) | v_samp, 0,  # Y
            2, 0x11, 1,  # Cb
            3, 0x11, 1,  # Cr
        ]
    )
    sos = bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])

    out = bytearray()
    out += b"\xff\xd8"  # SOI
    out += _APP0_JFIF
    out += _dqt_segment(0, luma_q)
    out += _dqt_segment(1, chroma_q)
    out += _segment(0xC0, sof)
    out += _dht_segment(0, 0, STD_DC_LUMA)
    out += _dht_segment(1, 0, STD_AC_LUMA)
    out += _dht_segment(0, 1, STD_DC_CHROMA)
    out += _dht_segment(1, 1, STD_AC_CHROMA)
    out += _segment(0xDA, sos)
    out += entropy
    out += b"\xff\xd9"  # EOI
    return bytes(out)


@dataclass(frozen=True)
class JpegDecodeOptions:
    """Decoder-implementation knobs along which real OS decoders differ.

    Attributes
    ----------
    idct:
        ``"float"`` (reference), ``"fixed11"`` or ``"fixed8"``
        (fixed-point approximations with 11 / 8 fractional bits).
    rounding:
        ``"round"`` (round-half-away, libjpeg-style) or ``"truncate"``
        when converting reconstructed samples to 8-bit.
    chroma_upsample:
        ``"bilinear"`` ("fancy" triangle filter) or ``"nearest"``
        (replication).
    """

    idct: str = "float"
    rounding: str = "round"
    chroma_upsample: str = "bilinear"


#: The Annex K tables every encoder here writes. A DHT segment equal to
#: one of them decodes with the module instance, so its lazily built
#: 65536-entry ``peek_table`` is built once per process, not per decode.
_STANDARD_TABLES = (STD_DC_LUMA, STD_DC_CHROMA, STD_AC_LUMA, STD_AC_CHROMA)


def _dht_table(bits: Sequence[int], values: Sequence[int]) -> HuffmanTable:
    """The standard table equal to ``(bits, values)``, else a fresh one."""
    key = (tuple(bits), tuple(values))
    for table in _STANDARD_TABLES:
        if (table.bits, table.values) == key:
            return table
    return HuffmanTable(bits, values)


def decode_jpeg(data: bytes, options: JpegDecodeOptions | None = None) -> ImageBuffer:
    """Decode a baseline JFIF stream produced by :func:`encode_jpeg`.

    The decoder is a real marker-stream parser: it reads DQT/DHT tables and
    frame geometry from the file rather than assuming the encoder's
    defaults.
    """
    options = options or JpegDecodeOptions()
    if options.rounding not in ("round", "truncate"):
        raise ValueError(f"unknown rounding mode {options.rounding!r}")
    if options.chroma_upsample not in ("bilinear", "nearest"):
        raise ValueError(f"unknown upsampling {options.chroma_upsample!r}")

    if data[:2] != b"\xff\xd8":
        raise ValueError("not a JPEG stream (missing SOI)")

    pos = 2
    quant_tables: Dict[int, np.ndarray] = {}
    huff_tables: Dict[Tuple[int, int], HuffmanTable] = {}
    frame = None
    scan_components: List[Tuple[int, int, int]] = []
    entropy_start = None
    zz = zigzag_order(8)

    while pos < len(data):
        if data[pos] != 0xFF:
            raise ValueError(f"expected marker at offset {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # parameterless markers
        length = struct.unpack(">H", data[pos : pos + 2])[0]
        payload = data[pos + 2 : pos + length]
        pos += length

        if marker == 0xDB:  # DQT
            offset = 0
            while offset < len(payload):
                pq_tq = payload[offset]
                precision, table_id = pq_tq >> 4, pq_tq & 0x0F
                if precision != 0:
                    raise ValueError("only 8-bit quant tables supported")
                table_zz = np.frombuffer(
                    payload[offset + 1 : offset + 65], dtype=np.uint8
                ).astype(np.int64)
                raster = np.empty(64, dtype=np.int64)
                raster[zz] = table_zz
                quant_tables[table_id] = raster.reshape(8, 8)
                offset += 65
        elif marker == 0xC4:  # DHT
            offset = 0
            while offset < len(payload):
                tc_th = payload[offset]
                table_class, table_id = tc_th >> 4, tc_th & 0x0F
                bits = list(payload[offset + 1 : offset + 17])
                count = sum(bits)
                values = list(payload[offset + 17 : offset + 17 + count])
                huff_tables[(table_class, table_id)] = _dht_table(bits, values)
                offset += 17 + count
        elif marker == 0xC0:  # SOF0 baseline
            precision, height, width, ncomp = struct.unpack(">BHHB", payload[:6])
            if precision != 8 or ncomp != 3:
                raise ValueError("only 8-bit 3-component baseline supported")
            comps = []
            for i in range(ncomp):
                cid, samp, tq = payload[6 + 3 * i : 9 + 3 * i]
                comps.append((cid, samp >> 4, samp & 0x0F, tq))
            frame = (height, width, comps)
        elif marker in (0xC1, 0xC2, 0xC3):
            raise ValueError("only baseline (SOF0) JPEG is supported")
        elif marker == 0xDA:  # SOS
            ns = payload[0]
            for i in range(ns):
                cid, tables = payload[1 + 2 * i : 3 + 2 * i]
                scan_components.append((cid, tables >> 4, tables & 0x0F))
            entropy_start = pos
            break
        # APPn / COM and anything else: skipped.

    if frame is None or entropy_start is None:
        raise ValueError("missing SOF/SOS segment")

    # Locate the end of the entropy-coded segment (EOI marker).
    end = data.rfind(b"\xff\xd9")
    if end < 0:
        raise ValueError("missing EOI")
    reader = BitReader(data[entropy_start:end], unstuff_ff=True)

    height, width, comps = frame
    h_max = max(c[1] for c in comps)
    v_max = max(c[2] for c in comps)
    mcu_w, mcu_h = 8 * h_max, 8 * v_max
    mcu_cols = -(-width // mcu_w)
    mcu_rows = -(-height // mcu_h)

    comp_info = {}
    for cid, h_s, v_s, tq in comps:
        dc_id, ac_id = next(
            (dc, ac) for scid, dc, ac in scan_components if scid == cid
        )
        blocks_w = mcu_cols * h_s
        blocks_h = mcu_rows * v_s
        comp_info[cid] = {
            "h": h_s,
            "v": v_s,
            "quant": quant_tables[tq],
            "dc_table": huff_tables[(0, dc_id)],
            "ac_table": huff_tables[(1, ac_id)],
            "n_blocks": blocks_h * blocks_w,
            "blocks_w": blocks_w,
        }

    order = [cid for cid, _h, _v, _tq in comps]
    samplings = tuple((h_s, v_s) for _cid, h_s, v_s, _tq in comps)
    comp_of_unit, block_of_unit = kernels.scan_layout(mcu_rows, mcu_cols, samplings)
    decoded = kernels.decode_jpeg_scan(
        reader,
        comp_of_unit,
        block_of_unit,
        [comp_info[cid]["dc_table"] for cid in order],
        [comp_info[cid]["ac_table"] for cid in order],
        [comp_info[cid]["n_blocks"] for cid in order],
    )
    for ci, cid in enumerate(order):
        comp_info[cid]["blocks"] = decoded[ci]

    planes = {}
    for cid, info in comp_info.items():
        plane_h = (info["blocks"].shape[0] // info["blocks_w"]) * 8
        plane_w = info["blocks_w"] * 8
        planes[cid] = _quantized_blocks_to_plane(
            info["blocks"], info["quant"], plane_h, plane_w, options.idct
        )

    y_plane = planes[1]
    cb_plane = planes[2]
    cr_plane = planes[3]
    y_info = comp_info[1]
    if y_info["h"] == 2 and y_info["v"] == 2:
        upsample = (
            _upsample_2x_bilinear
            if options.chroma_upsample == "bilinear"
            else _upsample_2x_nearest
        )
        cb_plane = upsample(cb_plane)
        cr_plane = upsample(cr_plane)

    y_plane = y_plane[:height, :width]
    cb_plane = cb_plane[:height, :width]
    cr_plane = cr_plane[:height, :width]

    ycc = np.stack(
        [y_plane / 255.0, (cb_plane - 128.0) / 255.0, (cr_plane - 128.0) / 255.0],
        axis=-1,
    )
    rgb = ycbcr_to_rgb(ycc) * 255.0
    rgb = np.clip(rgb, 0.0, 255.0)
    if options.rounding == "round":
        rgb8 = np.floor(rgb + 0.5).astype(np.uint8)
    else:
        rgb8 = rgb.astype(np.uint8)  # truncation
    return ImageBuffer.from_uint8(rgb8)


def jpeg_roundtrip_batch(
    images: Sequence[ImageBuffer],
    quality: int = 85,
    subsampling: str = "4:2:0",
    options: JpegDecodeOptions | None = None,
) -> List[Tuple[bytes, ImageBuffer]]:
    """Encode a batch and reconstruct each file's decoded pixels, fused.

    Returns ``[(data, decoded), ...]`` where item ``i`` is bit-identical
    to ``data = encode_jpeg(images[i], quality, subsampling)`` followed by
    ``decoded = decode_jpeg(data, options)`` — without re-parsing the
    bytes just produced. Two fusions make this fast:

    * the whole batch moves through the color/subsample/DCT front end as
      ``(N, H, W)`` plane stacks (every step is either elementwise or an
      independent per-block transform, so batching cannot change a bit);
      only the entropy coder runs per item, because each file's bit
      stream is its own;
    * the decode side starts from the encoder's own quantized zig-zag
      blocks. Entropy coding is lossless (``decode_scan(encode_scan(b))
      == b`` exactly — the kernels equivalence suite pins it) and the
      decoder's SOF-derived plane geometry and parsed DQT tables equal
      the encoder's by construction, so dequantize -> IDCT -> upsample ->
      color conversion over the same blocks reproduces ``decode_jpeg``'s
      output exactly while skipping the marker parse and the per-symbol
      Huffman walk.
    """
    options = options or JpegDecodeOptions()
    if options.rounding not in ("round", "truncate"):
        raise ValueError(f"unknown rounding mode {options.rounding!r}")
    if options.chroma_upsample not in ("bilinear", "nearest"):
        raise ValueError(f"unknown upsampling {options.chroma_upsample!r}")
    if subsampling not in ("4:2:0", "4:4:4"):
        raise ValueError(f"unsupported subsampling {subsampling!r}")
    images = list(images)
    if not images:
        return []
    if len({img.shape for img in images}) != 1:
        # Mixed geometry: no stack to fuse over; fall back per item.
        out = []
        for img in images:
            data = encode_jpeg(img, quality=quality, subsampling=subsampling)
            out.append((data, decode_jpeg(data, options)))
        return out

    luma_q, chroma_q = quality_scaled_tables(quality)

    rgb255 = np.stack([img.to_uint8() for img in images]).astype(np.float64)
    ycc = np.asarray(rgb_to_ycbcr(rgb255 / 255.0), dtype=np.float64)
    y_planes = ycc[..., 0] * 255.0
    cb_planes = ycc[..., 1] * 255.0 + 128.0
    cr_planes = ycc[..., 2] * 255.0 + 128.0

    n = len(images)
    height, width = y_planes.shape[1], y_planes.shape[2]
    if subsampling == "4:2:0":
        mcu = 16
        y_pad = _pad_planes_batch(y_planes, mcu)
        cb_small = _subsample_420_batch(_pad_planes_batch(cb_planes, 2))
        cr_small = _subsample_420_batch(_pad_planes_batch(cr_planes, 2))
        cb_pad = _pad_planes_batch(cb_small, 8)
        cr_pad = _pad_planes_batch(cr_small, 8)
        h_samp, v_samp = 2, 2
    else:
        mcu = 8
        y_pad = _pad_planes_batch(y_planes, mcu)
        cb_pad = _pad_planes_batch(cb_planes, 8)
        cr_pad = _pad_planes_batch(cr_planes, 8)
        h_samp, v_samp = 1, 1

    y_blocks = _planes_to_quantized_blocks_batch(y_pad, luma_q)
    cb_blocks = _planes_to_quantized_blocks_batch(cb_pad, chroma_q)
    cr_blocks = _planes_to_quantized_blocks_batch(cr_pad, chroma_q)

    mcu_rows = y_pad.shape[1] // mcu
    mcu_cols = y_pad.shape[2] // mcu
    samplings = ((h_samp, v_samp), (1, 1), (1, 1))
    comp_of_unit, block_of_unit = kernels.scan_layout(mcu_rows, mcu_cols, samplings)

    sof = struct.pack(
        ">BHHB", 8, height, width, 3
    ) + bytes(
        [
            1, (h_samp << 4) | v_samp, 0,  # Y
            2, 0x11, 1,  # Cb
            3, 0x11, 1,  # Cr
        ]
    )
    sos = bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
    header = bytearray()
    header += b"\xff\xd8"  # SOI
    header += _APP0_JFIF
    header += _dqt_segment(0, luma_q)
    header += _dqt_segment(1, chroma_q)
    header += _segment(0xC0, sof)
    header += _dht_segment(0, 0, STD_DC_LUMA)
    header += _dht_segment(1, 0, STD_AC_LUMA)
    header += _dht_segment(0, 1, STD_DC_CHROMA)
    header += _dht_segment(1, 1, STD_AC_CHROMA)
    header += _segment(0xDA, sos)
    header = bytes(header)

    datas: List[bytes] = []
    for i in range(n):
        entropy = kernels.encode_jpeg_scan(
            (y_blocks[i], cb_blocks[i], cr_blocks[i]),
            comp_of_unit,
            block_of_unit,
            (STD_DC_LUMA, STD_DC_CHROMA, STD_DC_CHROMA),
            (STD_AC_LUMA, STD_AC_CHROMA, STD_AC_CHROMA),
        )
        datas.append(header + entropy + b"\xff\xd9")

    # Reconstruct from the encoder's own quantized blocks: the decoder's
    # SOF-derived padded dims equal the encoder's padded dims, and its
    # parsed DQT tables roundtrip exactly (values <= 255).
    y_rec = _quantized_blocks_to_planes_batch(
        y_blocks, luma_q, y_pad.shape[1], y_pad.shape[2], options.idct
    )
    cb_rec = _quantized_blocks_to_planes_batch(
        cb_blocks, chroma_q, cb_pad.shape[1], cb_pad.shape[2], options.idct
    )
    cr_rec = _quantized_blocks_to_planes_batch(
        cr_blocks, chroma_q, cr_pad.shape[1], cr_pad.shape[2], options.idct
    )
    if subsampling == "4:2:0":
        upsample = (
            _upsample_2x_bilinear_batch
            if options.chroma_upsample == "bilinear"
            else _upsample_2x_nearest_batch
        )
        cb_rec = upsample(cb_rec)
        cr_rec = upsample(cr_rec)

    y_rec = y_rec[:, :height, :width]
    cb_rec = cb_rec[:, :height, :width]
    cr_rec = cr_rec[:, :height, :width]

    ycc_rec = np.stack(
        [y_rec / 255.0, (cb_rec - 128.0) / 255.0, (cr_rec - 128.0) / 255.0],
        axis=-1,
    )
    rgb = ycbcr_to_rgb(ycc_rec) * 255.0
    rgb = np.clip(rgb, 0.0, 255.0)
    if options.rounding == "round":
        rgb8 = np.floor(rgb + 0.5).astype(np.uint8)
    else:
        rgb8 = rgb.astype(np.uint8)  # truncation
    return [(datas[i], ImageBuffer.from_uint8(rgb8[i])) for i in range(n)]
