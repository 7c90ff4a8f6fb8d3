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
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..imaging.color import rgb_to_ycbcr, ycbcr_to_rgb
from ..imaging.image import ImageBuffer
from .bitio import BitReader
from .dct import (
    block_dct,
    block_idct,
    block_idct_fixed_point,
    zigzag_order,
)
from .huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    HuffmanTable,
)

# Entropy coding runs through repro.kernels. Imported as the package
# object and accessed by attribute at call time so the codecs <-> kernels
# import cycle resolves in either order.
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
# Plane stacks <-> quantized blocks
# ----------------------------------------------------------------------
# Every plane operation takes an ``(N, H, W)`` stack; a single image is a
# stack of one. Each step is elementwise or an independent per-8x8-block
# transform, so the batch size cannot change a bit.
def _planes_to_quantized_blocks(planes: np.ndarray, quant: np.ndarray) -> np.ndarray:
    """Level-shift, DCT and quantize ``(N, H, W)`` padded planes into
    ``(N, n_blocks, 64)`` zig-zag blocks.

    The batch axis is folded into the block axis before the DCT. Each
    8x8 block transforms independently, so any leading-dim grouping is
    bit-identical; the codec batch tests pin this.
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


def _quantized_blocks_to_planes(
    blocks_zz: np.ndarray,
    quant: np.ndarray,
    height: int,
    width: int,
    idct: str,
) -> np.ndarray:
    """Dequantize, inverse-DCT and reassemble ``(N, n_blocks, 64)`` blocks
    into ``(N, height, width)`` planes (values around 0..255).

    As in the encoder-side helper, the block axis absorbs the batch axis
    around the per-block independent IDCT.
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


def _pad_planes(planes: np.ndarray, multiple: int) -> np.ndarray:
    """Edge-pad each plane of an ``(N, H, W)`` stack to a dim multiple."""
    _n, h, w = planes.shape
    pad_h = (-h) % multiple
    pad_w = (-w) % multiple
    if pad_h or pad_w:
        planes = np.pad(planes, ((0, 0), (0, pad_h), (0, pad_w)), mode="edge")
    return planes


def _subsample_420(planes: np.ndarray) -> np.ndarray:
    """2x2 box-average chroma downsampling (even dims required).

    The explicit sum reproduces ``.mean(axis=(2, 4))`` bit-for-bit
    (same reduce order, and ``* 0.25`` is exact) at half the cost.
    """
    a = planes[:, 0::2, 0::2]
    b = planes[:, 0::2, 1::2]
    c = planes[:, 1::2, 0::2]
    d = planes[:, 1::2, 1::2]
    return ((a + b) + (c + d)) * 0.25


def _upsample_2x_nearest(planes: np.ndarray) -> np.ndarray:
    return np.repeat(np.repeat(planes, 2, axis=1), 2, axis=2)


def _upsample_2x_bilinear(planes: np.ndarray) -> np.ndarray:
    """Triangle-filter ("fancy") chroma upsampling a la libjpeg."""
    n, h, w = planes.shape
    padded = np.pad(planes, ((0, 0), (1, 1), (1, 1)), mode="edge")
    out = np.empty((n, 2 * h, 2 * w), dtype=planes.dtype)
    # Each output sample mixes the nearest chroma sample (weight 3) with the
    # neighbour on each axis (weight 1) -> weights 9/3/3/1 over 16.
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


def _jfif_header(
    height: int, width: int, y_sampling: int, luma_q: np.ndarray, chroma_q: np.ndarray
) -> bytes:
    """Every marker segment from SOI up to the entropy-coded data."""
    sof = struct.pack(
        ">BHHB", 8, height, width, 3
    ) + bytes(
        [
            1, y_sampling, 0,  # Y
            2, 0x11, 1,  # Cb
            3, 0x11, 1,  # Cr
        ]
    )
    sos = bytes([3, 1, 0x00, 2, 0x11, 3, 0x11, 0, 63, 0])
    return b"".join(
        [
            b"\xff\xd8",  # SOI
            _APP0_JFIF,
            _dqt_segment(0, luma_q),
            _dqt_segment(1, chroma_q),
            _segment(0xC0, sof),
            _dht_segment(0, 0, STD_DC_LUMA),
            _dht_segment(1, 0, STD_AC_LUMA),
            _dht_segment(0, 1, STD_DC_CHROMA),
            _dht_segment(1, 1, STD_AC_CHROMA),
            _segment(0xDA, sos),
        ]
    )


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


# ----------------------------------------------------------------------
# The one encoder and the one pixel reconstruct
# ----------------------------------------------------------------------
def _y_sampling(subsampling: str) -> Tuple[int, int]:
    """Luma ``(h, v)`` sampling factors of a subsampling mode (chroma is 1x1)."""
    if subsampling == "4:2:0":
        return 2, 2
    if subsampling == "4:4:4":
        return 1, 1
    raise ValueError(f"unsupported subsampling {subsampling!r}")


def _validated(options: Optional[JpegDecodeOptions]) -> JpegDecodeOptions:
    """``options`` (default: :class:`JpegDecodeOptions()`), checked."""
    options = options or JpegDecodeOptions()
    if options.rounding not in ("round", "truncate"):
        raise ValueError(f"unknown rounding mode {options.rounding!r}")
    if options.chroma_upsample not in ("bilinear", "nearest"):
        raise ValueError(f"unknown upsampling {options.chroma_upsample!r}")
    return options


def _encode_batch(images: Sequence[ImageBuffer], quality: int, subsampling: str):
    """Encode a batch of same-shape images.

    Returns ``(datas, blocks, quants, plane_shapes)``: one JFIF byte
    stream per image, plus each component's ``(N, n_blocks, 64)``
    quantized zig-zag blocks, its quantization table and its padded plane
    dims — what :func:`_reconstruct` starts from. The whole batch moves
    through the color/subsample/DCT front end as ``(N, H, W)`` stacks;
    only the entropy coder runs per image, because each file's bit
    stream is its own.
    """
    h_samp, v_samp = _y_sampling(subsampling)
    luma_q, chroma_q = quality_scaled_tables(quality)

    rgb255 = np.stack([img.to_uint8() for img in images]).astype(np.float64)
    ycc = np.asarray(rgb_to_ycbcr(rgb255 / 255.0), dtype=np.float64)
    y_planes = ycc[..., 0] * 255.0
    cb_planes = ycc[..., 1] * 255.0 + 128.0
    cr_planes = ycc[..., 2] * 255.0 + 128.0

    height, width = y_planes.shape[1], y_planes.shape[2]
    mcu = 8 * h_samp
    if h_samp == 2:
        cb_planes = _subsample_420(_pad_planes(cb_planes, 2))
        cr_planes = _subsample_420(_pad_planes(cr_planes, 2))
    padded = (
        _pad_planes(y_planes, mcu),
        _pad_planes(cb_planes, 8),
        _pad_planes(cr_planes, 8),
    )
    quants = (luma_q, chroma_q, chroma_q)
    blocks = tuple(
        _planes_to_quantized_blocks(planes, quant)
        for planes, quant in zip(padded, quants)
    )

    mcu_rows = padded[0].shape[1] // mcu
    mcu_cols = padded[0].shape[2] // mcu
    samplings = ((h_samp, v_samp), (1, 1), (1, 1))
    comp_of_unit, block_of_unit = kernels.scan_layout(mcu_rows, mcu_cols, samplings)
    header = _jfif_header(height, width, (h_samp << 4) | v_samp, luma_q, chroma_q)
    datas = []
    for i in range(len(images)):
        entropy = kernels.encode_jpeg_scan(
            tuple(b[i] for b in blocks),
            comp_of_unit,
            block_of_unit,
            (STD_DC_LUMA, STD_DC_CHROMA, STD_DC_CHROMA),
            (STD_AC_LUMA, STD_AC_CHROMA, STD_AC_CHROMA),
        )
        datas.append(header + entropy + b"\xff\xd9")  # EOI
    return datas, blocks, quants, [p.shape[1:] for p in padded]


def _reconstruct(
    blocks: Sequence[np.ndarray],
    quants: Sequence[np.ndarray],
    plane_shapes: Sequence[Tuple[int, int]],
    upsample_chroma: bool,
    height: int,
    width: int,
    options: JpegDecodeOptions,
) -> np.ndarray:
    """Quantized Y/Cb/Cr blocks -> ``(N, height, width, 3)`` uint8 pixels.

    Dequantize -> IDCT -> (optional 2x chroma upsample) -> crop -> color
    conversion -> clip and round, as the decoder ``options`` say.
    """
    y_rec, cb_rec, cr_rec = (
        _quantized_blocks_to_planes(b, quant, h, w, options.idct)
        for b, quant, (h, w) in zip(blocks, quants, plane_shapes)
    )
    if upsample_chroma:
        upsample = (
            _upsample_2x_bilinear
            if options.chroma_upsample == "bilinear"
            else _upsample_2x_nearest
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
        return np.floor(rgb + 0.5).astype(np.uint8)
    return rgb.astype(np.uint8)  # truncation


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
    return _encode_batch([image], quality, subsampling)[0][0]


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
    defaults, Huffman-decodes the scan, and rebuilds pixels through the
    same reconstruct body as :func:`jpeg_roundtrip_batch`.
    """
    options = _validated(options)

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
        if data[pos] != 0xFF or pos + 2 > len(data):
            raise ValueError(f"expected marker at offset {pos}")
        marker = data[pos + 1]
        pos += 2
        if marker == 0xD9:  # EOI
            break
        if marker in (0x01,) or 0xD0 <= marker <= 0xD7:
            continue  # parameterless markers
        if pos + 2 > len(data):
            raise ValueError(f"segment length cut off at offset {pos}")
        length = struct.unpack(">H", data[pos : pos + 2])[0]
        if length < 2 or pos + length > len(data):
            raise ValueError(
                f"segment at offset {pos} declares {length} bytes, "
                f"{len(data) - pos} remain"
            )
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
            if len(payload) < 6 + 3 * 3:
                raise ValueError("SOF segment too short")
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
            if not payload or len(payload) < 1 + 2 * payload[0]:
                raise ValueError("SOS segment too short")
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
    samplings = tuple((h_s, v_s) for _cid, h_s, v_s, _tq in comps)
    if samplings[1:] != ((1, 1), (1, 1)) or samplings[0] not in ((1, 1), (2, 2)):
        raise ValueError(f"unsupported sampling factors {samplings}")
    mcu_w, mcu_h = 8 * samplings[0][0], 8 * samplings[0][1]
    mcu_cols = -(-width // mcu_w)
    mcu_rows = -(-height // mcu_h)

    scan_tables = {cid: (dc, ac) for cid, dc, ac in scan_components}
    quants, dc_tables, ac_tables, plane_shapes = [], [], [], []
    for cid, h_s, v_s, tq in comps:
        if cid not in scan_tables:
            raise ValueError(f"scan omits frame component {cid}")
        if tq not in quant_tables:
            raise ValueError(f"component {cid} references undefined DQT table {tq}")
        quants.append(quant_tables[tq])
        kinds = (("DC", dc_tables), ("AC", ac_tables))
        for table_class, (kind, tables) in enumerate(kinds):
            table_id = scan_tables[cid][table_class]
            if (table_class, table_id) not in huff_tables:
                raise ValueError(
                    f"component {cid} references undefined {kind} DHT table {table_id}"
                )
            tables.append(huff_tables[(table_class, table_id)])
        plane_shapes.append((8 * mcu_rows * v_s, 8 * mcu_cols * h_s))

    comp_of_unit, block_of_unit = kernels.scan_layout(mcu_rows, mcu_cols, samplings)
    try:
        decoded = kernels.decode_jpeg_scan(
            reader,
            comp_of_unit,
            block_of_unit,
            dc_tables,
            ac_tables,
            [(h // 8) * (w // 8) for h, w in plane_shapes],
        )
    except (EOFError, OverflowError) as exc:
        raise ValueError(f"truncated or corrupt JPEG scan: {exc}") from exc
    rgb8 = _reconstruct(
        [blocks[None] for blocks in decoded],
        quants,
        plane_shapes,
        samplings[0] == (2, 2),
        height,
        width,
        options,
    )
    return ImageBuffer.from_uint8(rgb8[0])


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
    bytes just produced. ``encode_jpeg`` is this batch's encoder at N=1.
    The decode side starts from the encoder's own quantized zig-zag
    blocks: entropy coding is lossless (``decode_scan(encode_scan(b)) ==
    b`` exactly — the kernels equivalence suite pins it) and the
    decoder's SOF-derived plane geometry and parsed DQT tables equal the
    encoder's by construction, so :func:`decode_jpeg`'s own reconstruct
    body over the same blocks reproduces its output exactly while
    skipping the marker parse and the per-symbol Huffman walk.
    """
    options = _validated(options)
    upsample_chroma = _y_sampling(subsampling) == (2, 2)
    images = list(images)
    if not images:
        return []
    if len({img.shape for img in images}) != 1:
        # Mixed geometry: no stack to fuse over; one batch per item.
        return [
            item
            for img in images
            for item in jpeg_roundtrip_batch([img], quality, subsampling, options)
        ]

    datas, blocks, quants, plane_shapes = _encode_batch(images, quality, subsampling)
    height, width = images[0].shape[:2]
    rgb8 = _reconstruct(
        blocks, quants, plane_shapes, upsample_chroma, height, width, options
    )
    return [(data, ImageBuffer.from_uint8(pixels)) for data, pixels in zip(datas, rgb8)]
