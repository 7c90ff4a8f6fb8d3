"""Whole-scan vectorized entropy coding: the bodies behind :mod:`repro.kernels`.

Encoding never touches a per-coefficient Python loop. The scan is
flattened to one ``(n_units, 64)`` coefficient matrix; DC differences,
zig-zag run lengths, ZRL/EOB insertion, and magnitude categories are all
computed with NumPy array ops; Huffman codes come from per-table
``int64`` lookup arrays; and the variable-length codes are concatenated
via cumulative-sum bit offsets and packed to bytes (plus 0xFF stuffing)
in one vectorized pass.

Decoding keeps the unavoidable sequential walk (each symbol's length
gates where the next one starts) but replaces the bit-at-a-time tree
walk with a canonical 16-bit peek table — one lookup per symbol against
a word-buffered :class:`~repro.codecs.bitio.BitReader`.

Every function here is bit-identical to the scalar oracle kept in
``tests/kernels/reference.py``; ``tests/kernels/`` enforces that property
over random and degenerate inputs.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from ..codecs.bitio import BitReader
from ..codecs.huffman import HuffmanTable

__all__ = ["encode_scan", "decode_scan", "png_filter_scanlines"]

#: Powers of two for magnitude-category computation (size = number of
#: bins <= |v|, i.e. bit_length). 2^31 bounds any JPEG-representable
#: coefficient with headroom.
_SIZE_BINS = np.array([1 << s for s in range(32)], dtype=np.int64)
_SIZE_BINS.setflags(write=False)

#: Direct bit_length lookup for the |v| < 4096 range every baseline JPEG
#: coefficient/DC-diff lives in (one gather instead of a binary search).
_SIZE_LUT = np.digitize(np.arange(4096), _SIZE_BINS).astype(np.int64)
_SIZE_LUT.setflags(write=False)


def _bit_sizes(values: np.ndarray) -> np.ndarray:
    """Vectorized JPEG magnitude category: smallest s with |v| < 2^s."""
    magnitudes = np.abs(values)
    if magnitudes.size == 0 or int(magnitudes.max()) < 4096:
        return _SIZE_LUT[magnitudes]
    return np.digitize(magnitudes, _SIZE_BINS)


def _coded_magnitudes(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """JPEG extra-bits encoding: negatives are offset by 2^size - 1.

    ``values >> 63`` is an all-ones mask exactly for negatives, making
    this branch-free: v + (mask & (2^size - 1)).
    """
    return values + ((values >> 63) & ((np.int64(1) << sizes) - 1))


def _exclusive_cumsum(values: np.ndarray) -> np.ndarray:
    out = np.empty_like(values)
    if out.shape[0]:
        out[0] = 0
        np.cumsum(values[:-1], out=out[1:])
    return out


def _gather_lengths(
    lengths_by_comp: np.ndarray, comp: np.ndarray, symbols: np.ndarray, what: str
) -> np.ndarray:
    out_of_range = (symbols < 0) | (symbols > 255)
    if np.any(out_of_range):
        bad = symbols[out_of_range]
        raise KeyError(f"symbol {int(bad[0])} not in {what} Huffman table")
    gathered = lengths_by_comp[comp, symbols]
    if np.any(gathered == 0):
        missing = symbols[gathered == 0]
        raise KeyError(f"symbol {int(missing[0])} not in {what} Huffman table")
    return gathered


def encode_scan(
    blocks: Sequence[np.ndarray],
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence[HuffmanTable],
    ac_tables: Sequence[HuffmanTable],
) -> bytes:
    """Vectorized scan encoder, bit-identical to the reference loop."""
    comp_of_unit = np.asarray(comp_of_unit, dtype=np.int64)
    block_of_unit = np.asarray(block_of_unit, dtype=np.int64)
    n_units = comp_of_unit.shape[0]
    if n_units == 0:
        return b""

    # Scan-ordered coefficients: one gather from the stacked component
    # matrices (row offsets turn (comp, block) into a flat row index).
    stacks = [np.asarray(b, dtype=np.int64).reshape(-1, 64) for b in blocks]
    row_offsets = np.zeros(len(stacks), dtype=np.int64)
    np.cumsum([s.shape[0] for s in stacks[:-1]], out=row_offsets[1:])
    all_blocks = stacks[0] if len(stacks) == 1 else np.concatenate(stacks)
    scan = all_blocks[row_offsets[comp_of_unit] + block_of_unit]

    # Per-component DC prediction chains over the small per-unit arrays.
    dc_diff = np.empty(n_units, dtype=np.int64)
    for comp in range(len(blocks)):
        mask = comp_of_unit == comp
        if not mask.any():
            continue
        dc = scan[:, 0][mask]
        diff = np.empty_like(dc)
        diff[0] = dc[0]
        diff[1:] = dc[1:] - dc[:-1]
        dc_diff[mask] = diff

    # Per-component Huffman code arrays, stacked for fancy-index gathers.
    dc_codes = np.stack([t.encode_arrays()[0] for t in dc_tables])
    dc_lens = np.stack([t.encode_arrays()[1] for t in dc_tables])
    ac_codes = np.stack([t.encode_arrays()[0] for t in ac_tables])
    ac_lens = np.stack([t.encode_arrays()[1] for t in ac_tables])

    dc_sizes = _bit_sizes(dc_diff)
    dc_extra = _coded_magnitudes(dc_diff, dc_sizes)

    # AC symbol stream: for each nonzero coefficient (row-major over the
    # (n_units, 63) AC matrix, i.e. scan order), the run of zeros since
    # the previous nonzero in the same unit, split into ZRL(0xF0) repeats
    # and a (run << 4 | size) symbol; EOB(0x00) wherever a unit's last
    # nonzero comes before index 63 (including all-zero-AC units).
    ac = scan[:, 1:]
    nz_unit, nz_col = np.nonzero(ac)
    nz_val = ac[nz_unit, nz_col]
    pos = nz_col + 1
    n_nz = pos.shape[0]

    has_nz = np.zeros(n_units, dtype=bool)
    has_nz[nz_unit] = True
    last_pos = np.zeros(n_units, dtype=np.int64)
    last_pos[nz_unit] = pos  # nz_unit ascending: final write per unit wins
    eob = ~has_nz | (last_pos < 63)

    if n_nz:
        is_first = np.empty(n_nz, dtype=bool)
        is_first[0] = True
        np.not_equal(nz_unit[1:], nz_unit[:-1], out=is_first[1:])
        prev_pos = np.concatenate([[0], pos[:-1]])
        prev_pos = np.where(is_first, 0, prev_pos)
        run = pos - prev_pos - 1
        zrl = run >> 4
        ac_sizes = _bit_sizes(nz_val)
        ac_symbols = ((run & 15) << 4) | ac_sizes
        ac_extra = _coded_magnitudes(nz_val, ac_sizes)
        seg_len = zrl + 1  # ZRLs + the fused (run|size)-code+extra item
        # Integer bincount (no float weights): nonzero count per unit,
        # plus the handful of ZRL repeats expanded explicitly.
        ac_items_per_unit = np.bincount(nz_unit, minlength=n_units)
        with_zrl = zrl > 0
        if with_zrl.any():
            ac_items_per_unit = ac_items_per_unit + np.bincount(
                np.repeat(nz_unit[with_zrl], zrl[with_zrl]), minlength=n_units
            )
    else:
        zrl = seg_len = np.zeros(0, dtype=np.int64)
        with_zrl = np.zeros(0, dtype=bool)
        ac_items_per_unit = np.zeros(n_units, dtype=np.int64)

    # One item per emitted Huffman code, with the code's extra magnitude
    # bits fused in, packed as (value << 6) | bit_length where value =
    # (code << size) | extra. Spec-conformant sizes (DC <= 16, AC <= 15
    # after the nibble) keep length <= 32, within the packer's 40-bit
    # byte-aligned lane, so value << 6 stays well inside int64. Packing
    # value and length into one array halves the scatter passes; every
    # slot is written exactly once (items_per_unit counts DC + AC + ZRL
    # + EOB items exactly), and real items are never 0 (length >= 1).
    items_per_unit = 1 + ac_items_per_unit + eob
    unit_base = _exclusive_cumsum(items_per_unit)
    total_items = int(items_per_unit.sum())
    items = np.zeros(total_items, dtype=np.int64)

    dc_code_lens = _gather_lengths(dc_lens, comp_of_unit, dc_sizes, "DC")
    dc_values = (dc_codes[comp_of_unit, dc_sizes] << dc_sizes) | dc_extra
    items[unit_base] = (dc_values << 6) | (dc_code_lens + dc_sizes)

    if n_nz:
        nz_comp = comp_of_unit[nz_unit]
        seg_cum = _exclusive_cumsum(seg_len)
        unit_first_cum = np.zeros(n_units, dtype=np.int64)
        unit_first_cum[nz_unit[is_first]] = seg_cum[is_first]
        seg_start = unit_base[nz_unit] + 1 + (seg_cum - unit_first_cum[nz_unit])
        ac_code_lens = _gather_lengths(ac_lens, nz_comp, ac_symbols, "AC")
        ac_values = (ac_codes[nz_comp, ac_symbols] << ac_sizes) | ac_extra
        items[seg_start + zrl] = (ac_values << 6) | (ac_code_lens + ac_sizes)
        total_zrl = int(zrl.sum())
        if total_zrl:
            # Validate ZRL presence only for components that emit it
            # (reference raises lazily, at first actual use).
            zrl_items = np.zeros(n_nz, dtype=np.int64)
            zrl_items[with_zrl] = (ac_codes[nz_comp[with_zrl], 0xF0] << 6) | (
                _gather_lengths(
                    ac_lens,
                    nz_comp[with_zrl],
                    np.full(int(with_zrl.sum()), 0xF0, dtype=np.int64),
                    "AC",
                )
            )
            zrl_base = _exclusive_cumsum(zrl)
            target = np.repeat(seg_start, zrl) + (
                np.arange(total_zrl) - np.repeat(zrl_base, zrl)
            )
            items[target] = np.repeat(zrl_items, zrl)

    if eob.any():
        eob_units = np.flatnonzero(eob)
        eob_comp = comp_of_unit[eob_units]
        eob_symbols = np.zeros(eob_units.shape[0], dtype=np.int64)
        eob_lens = _gather_lengths(ac_lens, eob_comp, eob_symbols, "AC")
        eob_pos = unit_base[eob_units] + items_per_unit[eob_units] - 1
        items[eob_pos] = (ac_codes[eob_comp, 0] << 6) | eob_lens

    return _pack_and_stuff(items)


def _pack_and_stuff(items: np.ndarray) -> bytes:
    """Concatenate MSB-first bit strings, pad with 1s, 0xFF-stuff.

    ``items`` packs each bit string as ``(value << 6) | bit_length``
    (bit lengths <= 33 fit the 6-bit field). Works in byte space, not
    bit space: each item's bits are aligned into a byte-lane window
    anchored at its starting byte, the lane bytes are scattered with
    ``bincount``-accumulation, and because distinct items occupy
    disjoint bit positions, per-byte ADD equals the OR a bit-serial
    writer would compute.
    """
    lengths = items & 63
    total_bits = int(lengths.sum())
    if total_bits == 0:
        return b""
    values = items >> 6
    pad = (-total_bits) % 8
    if pad:
        # JPEG flush: pad the final partial byte with 1-bits.
        values = np.concatenate([values, [(1 << pad) - 1]])
        lengths = np.concatenate([lengths, [pad]])
    max_span = int(lengths.max()) + 7  # worst-case bits incl. byte offset
    if max_span > 40:
        raise ValueError("item exceeds the packer's 40-bit lane")
    n_lanes = (max_span + 7) // 8
    lane_bits = 8 * n_lanes
    offsets = _exclusive_cumsum(lengths)
    byte0 = offsets >> 3
    lane = values << (lane_bits - (offsets & 7) - lengths)
    n_out = (total_bits + pad) // 8
    if n_lanes <= 4:
        # Single-bincount fast path: spread each item's byte lanes into
        # 12-bit digits of one weight. Because all bits written to a
        # given output byte are disjoint, every per-(byte, lane) sum is
        # <= 255, so digits never carry, and 4 digits stay below 2^48 —
        # exact in bincount's float64 accumulator.
        weight = (lane >> (lane_bits - 8)) & 0xFF
        for k in range(1, n_lanes):
            weight = (weight << 12) | ((lane >> (lane_bits - 8 - 8 * k)) & 0xFF)
        digits = np.bincount(byte0, weights=weight, minlength=n_out).astype(
            np.int64
        )
        acc = digits >> (12 * (n_lanes - 1))
        for k in range(1, n_lanes):
            acc[k:] += (digits[: n_out - k] >> (12 * (n_lanes - 1 - k))) & 0xFFF
    else:
        acc = np.zeros(n_out, dtype=np.int64)
        for k in range(n_lanes):
            contrib = (lane >> (lane_bits - 8 - 8 * k)) & 0xFF
            acc += np.bincount(
                byte0 + k, weights=contrib, minlength=n_out + n_lanes
            )[:n_out].astype(np.int64)
    packed = acc.astype(np.uint8)
    ff = np.flatnonzero(packed == 0xFF)
    if ff.size:
        packed = np.insert(packed, ff + 1, np.uint8(0))
    return packed.tobytes()


# ----------------------------------------------------------------------
# LUT-accelerated decoding
# ----------------------------------------------------------------------
def _next_symbol(reader: BitReader, lut) -> int:
    """Decode one Huffman symbol via a 16-bit canonical peek table."""
    window, avail = reader.peek_window(16)
    entry = lut[window]
    if entry == 0:
        if avail < 16:
            # The stream ended mid-code; consuming past the end raises
            # the same EOFError the bit-serial reference would.
            reader.read_bits(avail + 1)
        raise ValueError("invalid Huffman code (no symbol within 16 bits)")
    length = entry >> 8
    reader.read_bits(length)  # raises EOFError if the code overruns
    return entry & 0xFF


def decode_scan(
    reader: BitReader,
    comp_of_unit: np.ndarray,
    block_of_unit: np.ndarray,
    dc_tables: Sequence[HuffmanTable],
    ac_tables: Sequence[HuffmanTable],
    n_blocks: Sequence[int],
) -> List[np.ndarray]:
    """LUT-based scan decoder, array-identical to the reference loop."""
    out = [np.zeros((n, 64), dtype=np.int64) for n in n_blocks]
    preds = [0] * len(out)
    dc_luts = [t.peek_table() for t in dc_tables]
    ac_luts = [t.peek_table() for t in ac_tables]
    read_bits = reader.read_bits
    comp_list = np.asarray(comp_of_unit).tolist()
    block_list = np.asarray(block_of_unit).tolist()
    for unit, comp in enumerate(comp_list):
        coeffs = [0] * 64
        size = _next_symbol(reader, dc_luts[comp])
        if size:
            raw = read_bits(size)
            if raw < (1 << (size - 1)):
                raw -= (1 << size) - 1
        else:
            raw = 0
        dc = preds[comp] + raw
        preds[comp] = dc
        coeffs[0] = dc
        ac_lut = ac_luts[comp]
        idx = 1
        while idx < 64:
            symbol = _next_symbol(reader, ac_lut)
            if symbol == 0x00:  # EOB
                break
            if symbol == 0xF0:  # ZRL
                idx += 16
                continue
            run, size = symbol >> 4, symbol & 0x0F
            idx += run
            if idx >= 64:
                raise ValueError("AC run overflows block")
            if size:
                raw = read_bits(size)
                if raw < (1 << (size - 1)):
                    raw -= (1 << size) - 1
                coeffs[idx] = raw
            idx += 1
        out[comp][block_list[unit]] = coeffs
    return out


# ----------------------------------------------------------------------
# PNG adaptive filtering, whole image at once
# ----------------------------------------------------------------------
def png_filter_scanlines(raw: np.ndarray) -> bytes:
    """Vectorized PNG filter search, byte-identical to the row loop.

    Filtering only reads the *raw* previous row (never the filtered
    output), so all five candidate filters can be evaluated for every
    row simultaneously; the per-row argmin over signed-byte cost matches
    the reference's first-minimum tie-breaking.
    """
    height, rowbytes = raw.shape
    bpp = 3
    zeros_col = np.zeros((height, bpp), dtype=np.uint8)
    prev = np.concatenate([np.zeros((1, rowbytes), dtype=np.uint8), raw[:-1]])
    left = np.concatenate([zeros_col, raw[:, :-bpp]], axis=1)
    upleft = np.concatenate([zeros_col, prev[:, :-bpp]], axis=1)

    raw16 = raw.astype(np.int16)
    candidates = np.stack(
        [
            raw,  # None
            (raw16 - left).astype(np.uint8),  # Sub
            (raw16 - prev).astype(np.uint8),  # Up
            (raw16 - ((left.astype(np.int16) + prev) // 2)).astype(np.uint8),  # Average
            (raw16 - _paeth_rows(left, prev, upleft)).astype(np.uint8),  # Paeth
        ]
    )
    costs = np.abs(candidates.astype(np.int8).astype(np.int32)).sum(axis=2)
    best = np.argmin(costs, axis=0)  # first minimum, like list argmin

    out = np.empty((height, rowbytes + 1), dtype=np.uint8)
    out[:, 0] = best
    out[:, 1:] = candidates[best, np.arange(height)]
    return out.tobytes()


def _paeth_rows(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Paeth predictor over whole (H, rowbytes) matrices."""
    p = a.astype(np.int16) + b.astype(np.int16) - c.astype(np.int16)
    pa = np.abs(p - a)
    pb = np.abs(p - b)
    pc = np.abs(p - c)
    out = np.where((pa <= pb) & (pa <= pc), a, np.where(pb <= pc, b, c))
    return out.astype(np.uint8)
