"""Oracle equivalence: every :mod:`repro.kernels` entry point must match
the scalar oracle in ``tests/kernels/reference.py`` bit-for-bit.

Property-style seeded trials (same idiom as tests/codecs) drive the
kernels and the oracle over random coefficient matrices, adversarial
sparsity patterns (ZRL chains, all-zero blocks, a nonzero in the final
slot), random Huffman tables, and all seven entry points. Any divergence
— one byte, one coefficient — is a bug in the kernels by definition.
"""

import numpy as np
import pytest

from repro import kernels, obs
from repro.codecs.bitio import BitReader
from repro.codecs.huffman import (
    STD_AC_CHROMA,
    STD_AC_LUMA,
    STD_DC_CHROMA,
    STD_DC_LUMA,
    HuffmanTable,
)
from tests.kernels import reference

TRIALS = 20


def _random_blocks(rng, n_blocks, density=0.2, amplitude=1023):
    """Random zig-zag coefficient matrices with JPEG-legal magnitudes.

    AC values stay within +/-1023 (size <= 10) and the implied DC diffs
    within +/-2047 (size <= 11), so the standard tables always apply.
    """
    blocks = np.zeros((n_blocks, 64), dtype=np.int64)
    mask = rng.random((n_blocks, 64)) < density
    values = rng.integers(-amplitude, amplitude + 1, size=(n_blocks, 64))
    blocks[mask] = values[mask]
    blocks[:, 0] = rng.integers(-1023, 1024, size=n_blocks)
    return blocks


def _roundtrip_both(blocks_per_comp, comp, block, dc_tables, ac_tables):
    """Encode+decode with the kernels and the oracle; assert identity."""
    n_blocks = [b.shape[0] for b in blocks_per_comp]
    encoded = kernels.encode_jpeg_scan(blocks_per_comp, comp, block, dc_tables, ac_tables)
    expected = reference.encode_scan(blocks_per_comp, comp, block, dc_tables, ac_tables)
    assert encoded == expected
    decoded = kernels.decode_jpeg_scan(
        BitReader(encoded, unstuff_ff=True), comp, block, dc_tables, ac_tables, n_blocks
    )
    oracle = reference.decode_scan(
        BitReader(encoded, unstuff_ff=True), comp, block, dc_tables, ac_tables, n_blocks
    )
    for got, want, original in zip(decoded, oracle, blocks_per_comp):
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(got, original)
    return encoded


@pytest.mark.parametrize("density", [0.0, 0.05, 0.3, 0.9])
def test_single_component_random_scans(density):
    rng = np.random.default_rng(int(density * 100))
    for trial in range(TRIALS):
        n = int(rng.integers(1, 24))
        blocks = _random_blocks(rng, n, density=density)
        comp, block = kernels.scan_layout(n, 1, ((1, 1),))
        _roundtrip_both([blocks], comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,))


def test_interleaved_420_scan():
    rng = np.random.default_rng(7)
    for trial in range(TRIALS):
        mcu_rows, mcu_cols = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        n_mcus = mcu_rows * mcu_cols
        luma = _random_blocks(rng, 4 * n_mcus)
        cb = _random_blocks(rng, n_mcus)
        cr = _random_blocks(rng, n_mcus)
        comp, block = kernels.scan_layout(
            mcu_rows, mcu_cols, ((2, 2), (1, 1), (1, 1))
        )
        _roundtrip_both(
            [luma, cb, cr],
            comp,
            block,
            (STD_DC_LUMA, STD_DC_CHROMA, STD_DC_CHROMA),
            (STD_AC_LUMA, STD_AC_CHROMA, STD_AC_CHROMA),
        )


@pytest.mark.parametrize(
    "positions",
    [
        (),  # all-zero AC: pure EOB stream
        (63,),  # final slot occupied: no EOB after the last nonzero
        (17,),  # 16-zero run: exactly one ZRL
        (48,),  # 47-zero run: two ZRLs then run 15
        (17, 48, 63),  # chained ZRL segments, EOB suppressed
        (1, 2, 3, 63),
        tuple(range(1, 64)),  # fully dense
    ],
)
def test_sparsity_edge_patterns(positions):
    blocks = np.zeros((3, 64), dtype=np.int64)
    blocks[:, 0] = (-512, 0, 511)
    for pos in positions:
        blocks[:, pos] = (1, -1, 7)
    comp, block = kernels.scan_layout(3, 1, ((1, 1),))
    _roundtrip_both([blocks], comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,))


def test_dc_prediction_chain_crosses_sign():
    # DC diffs exercise the full +/-2047 envelope, including diff == 0.
    blocks = np.zeros((5, 64), dtype=np.int64)
    blocks[:, 0] = (1023, -1024, 1023, 1023, 0)
    comp, block = kernels.scan_layout(5, 1, ((1, 1),))
    _roundtrip_both([blocks], comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,))


def test_random_huffman_tables():
    """Kernels and oracle agree under arbitrary canonical tables, not just Annex K."""
    rng = np.random.default_rng(11)
    dc_freqs = {s: int(rng.integers(1, 100)) for s in range(12)}
    ac_symbols = {0x00, 0xF0} | {
        (run << 4) | size for run in range(16) for size in range(1, 11)
    }
    ac_freqs = {s: int(rng.integers(1, 100)) for s in sorted(ac_symbols)}
    dc_table = HuffmanTable.from_frequencies(dc_freqs)
    ac_table = HuffmanTable.from_frequencies(ac_freqs)
    for trial in range(5):
        blocks = _random_blocks(rng, 8, density=0.4)
        comp, block = kernels.scan_layout(8, 1, ((1, 1),))
        _roundtrip_both([blocks], comp, block, (dc_table,), (ac_table,))


def test_missing_symbol_raises_keyerror_on_both_backends():
    # A DC-only table cannot encode AC symbols; the kernels and the oracle
    # must refuse with the same exception class.
    tiny = HuffmanTable.from_frequencies({0: 1, 1: 1})
    blocks = np.zeros((1, 64), dtype=np.int64)
    blocks[0, 1] = 5  # needs AC symbol 0x01
    comp, block = kernels.scan_layout(1, 1, ((1, 1),))
    for encode in (kernels.encode_jpeg_scan, reference.encode_scan):
        with pytest.raises(KeyError):
            encode([blocks], comp, block, (STD_DC_LUMA,), (tiny,))


def test_truncated_stream_raises_on_both_backends():
    blocks = _random_blocks(np.random.default_rng(3), 6, density=0.5)
    comp, block = kernels.scan_layout(6, 1, ((1, 1),))
    data = _roundtrip_both([blocks], comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,))
    for decode in (kernels.decode_jpeg_scan, reference.decode_scan):
        reader = BitReader(data[: len(data) // 2], unstuff_ff=True)
        with pytest.raises((EOFError, ValueError)):
            decode(reader, comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,), [6])


def test_png_filter_equivalence():
    rng = np.random.default_rng(5)
    for shape in ((1, 3), (7, 21), (32, 96), (64, 192)):
        raw = rng.integers(0, 256, size=shape, dtype=np.uint8)
        assert kernels.png_filter_scanlines(raw) == reference.png_filter_scanlines(raw)


def test_png_filter_gradient_prefers_nontrivial_filters():
    # Smooth ramps make Sub/Paeth win; the kernels must pick the oracle's
    # filter id per row (it is part of the byte stream).
    ramp = np.add.outer(np.arange(16), np.arange(48)).astype(np.uint8)
    ref = reference.png_filter_scanlines(ramp)
    assert kernels.png_filter_scanlines(ramp) == ref
    assert any(line[0] != 0 for line in np.frombuffer(ref, np.uint8).reshape(16, -1))


def test_coefficient_pack_roundtrip():
    rng = np.random.default_rng(9)
    values = rng.integers(-(2**15), 2**15, size=257, dtype=np.int64)
    data = kernels.pack_coefficients(values)
    assert data == reference.pack_coefficients(values)
    out = kernels.unpack_coefficients(data)
    np.testing.assert_array_equal(out, reference.unpack_coefficients(data))
    np.testing.assert_array_equal(out, values)


def test_deflate_roundtrip_identical_across_backends():
    payload = bytes(range(256)) * 17
    data = kernels.entropy_deflate(payload, 6)
    assert data == reference.entropy_deflate(payload, 6)
    assert kernels.entropy_inflate(data) == reference.entropy_inflate(data) == payload


def test_entry_points_emit_counters():
    blocks = np.zeros((4, 64), dtype=np.int64)
    comp, block = kernels.scan_layout(2, 2, ((1, 1),))
    with obs.observed() as ob:
        kernels.encode_jpeg_scan([blocks], comp, block, (STD_DC_LUMA,), (STD_AC_LUMA,))
        kernels.entropy_deflate(b"abc", 6)
    metrics = ob.metrics
    assert metrics.counter_value("kernels.jpeg.units_encoded") == 4
    assert metrics.counter_value("kernels.jpeg.bytes_encoded") > 0
    assert metrics.counter_value("kernels.deflate.bytes_in") == 3
