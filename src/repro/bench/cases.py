"""Benchmark case definitions.

Each case packages a deterministic input builder (seeded RNG, no wall
clock) and a zero-argument callable to time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List

import numpy as np


@dataclass(frozen=True)
class BenchCase:
    name: str
    prepare: Callable[[], Callable[[], object]]
    items: int
    item_unit: str
    nbytes: int


def _smooth_image(rng: np.random.Generator, size: int) -> np.ndarray:
    """A photograph-like RGB uint8 test image: smooth gradients + noise.

    Pure noise is the worst case for entropy coding (no zero runs); box-
    blurred noise has JPEG-typical AC sparsity, so throughput numbers
    reflect realistic symbol streams.
    """
    rgb = rng.random((size, size, 3))
    kernel = np.ones(8) / 8.0
    for axis in (0, 1):
        rgb = np.apply_along_axis(
            lambda v: np.convolve(v, kernel, mode="same"), axis, rgb
        )
    rgb = rgb + 0.1 * rng.random((size, size, 3))
    rgb -= rgb.min()
    rgb /= max(rgb.max(), 1e-9)
    return (rgb * 255.0).astype(np.uint8)


def build_cases(quick: bool = False, seed: int = 0) -> List[BenchCase]:
    """The benchmark suite; ``quick`` shrinks inputs for CI smoke runs."""
    size = 128 if quick else 512
    pixels = size * size
    cases: List[BenchCase] = []

    # -- macro: JPEG encode/decode of a capture-sized image ------------
    def prep_jpeg_encode():
        from ..codecs.jpeg import encode_jpeg
        from ..imaging.image import ImageBuffer

        image = ImageBuffer.from_uint8(_smooth_image(np.random.default_rng(seed), size))
        return lambda: encode_jpeg(image, quality=85)

    cases.append(
        BenchCase(
            name=f"jpeg_encode_{size}",
            prepare=prep_jpeg_encode,
            items=pixels,
            item_unit="px",
            nbytes=pixels * 3,
        )
    )

    def prep_jpeg_decode():
        from ..codecs.jpeg import decode_jpeg, encode_jpeg
        from ..imaging.image import ImageBuffer

        image = ImageBuffer.from_uint8(_smooth_image(np.random.default_rng(seed), size))
        data = encode_jpeg(image, quality=85)
        return lambda: decode_jpeg(data)

    cases.append(
        BenchCase(
            name=f"jpeg_decode_{size}",
            prepare=prep_jpeg_decode,
            items=pixels,
            item_unit="px",
            nbytes=pixels * 3,
        )
    )

    # -- micro: entropy kernels in isolation ---------------------------
    n_units = (size // 8) * (size // 8)

    def _scan_inputs():
        from ..codecs.huffman import STD_AC_LUMA, STD_DC_LUMA
        from ..codecs.jpeg import _planes_to_quantized_blocks, quality_scaled_tables
        from .. import kernels

        rng = np.random.default_rng(seed)
        planes = _smooth_image(rng, size)[None, ..., 0].astype(np.float64)
        luma_q = quality_scaled_tables(85)[0]
        blocks = _planes_to_quantized_blocks(planes, luma_q)[0]
        comp_of_unit, block_of_unit = kernels.scan_layout(
            size // 8, size // 8, ((1, 1),)
        )
        return blocks, comp_of_unit, block_of_unit, (STD_DC_LUMA,), (STD_AC_LUMA,)

    def prep_entropy_encode():
        from .. import kernels

        blocks, comp, block, dc, ac = _scan_inputs()
        return lambda: kernels.encode_jpeg_scan([blocks], comp, block, dc, ac)

    cases.append(
        BenchCase(
            name="entropy_encode",
            prepare=prep_entropy_encode,
            items=n_units,
            item_unit="block",
            nbytes=n_units * 64 * 8,
        )
    )

    def prep_entropy_decode():
        from ..codecs.bitio import BitReader
        from .. import kernels

        blocks, comp, block, dc, ac = _scan_inputs()
        data = kernels.encode_jpeg_scan([blocks], comp, block, dc, ac)

        def run():
            reader = BitReader(data, unstuff_ff=True)
            return kernels.decode_jpeg_scan(
                reader, comp, block, dc, ac, [blocks.shape[0]]
            )

        return run

    cases.append(
        BenchCase(
            name="entropy_decode",
            prepare=prep_entropy_decode,
            items=n_units,
            item_unit="block",
            nbytes=n_units * 64 * 8,
        )
    )

    def prep_png_filter():
        from .. import kernels

        raw = _smooth_image(np.random.default_rng(seed), size).reshape(size, size * 3)
        return lambda: kernels.png_filter_scanlines(raw)

    cases.append(
        BenchCase(
            name="png_filter",
            prepare=prep_png_filter,
            items=size,
            item_unit="row",
            nbytes=pixels * 3,
        )
    )

    # -- micro: pipeline stages outside the entropy kernels -------------
    def prep_dct():
        from ..codecs.dct import block_dct, blockify

        plane = _smooth_image(np.random.default_rng(seed), size)[..., 0]
        blocks = blockify(plane.astype(np.float64) - 128.0, 8)
        return lambda: block_dct(blocks)

    cases.append(
        BenchCase(
            name="dct",
            prepare=prep_dct,
            items=n_units,
            item_unit="block",
            nbytes=pixels * 8,
        )
    )

    def prep_isp():
        from ..imaging.image import RawImage
        from ..isp.profiles import build_isp

        rng = np.random.default_rng(seed)
        mosaic = (rng.random((size, size), dtype=np.float32) * 0.8) + 0.1
        raw = RawImage(mosaic=mosaic)
        isp = build_isp("samsung_s10", out_height=96, out_width=96)
        return lambda: isp.process(raw)

    cases.append(
        BenchCase(
            name="isp_samsung_s10",
            prepare=prep_isp,
            items=pixels,
            item_unit="px",
            nbytes=pixels * 4,
        )
    )

    def prep_conv():
        from ..nn.functional import conv2d_forward

        rng = np.random.default_rng(seed)
        batch = 2 if quick else 8
        x = rng.standard_normal((batch, 3, 32, 32))
        weight = rng.standard_normal((16, 3, 3, 3))
        bias = rng.standard_normal(16)
        return lambda: conv2d_forward(x, weight, bias, stride=1, pad=1)

    conv_batch = 2 if quick else 8
    cases.append(
        BenchCase(
            name="conv_forward",
            prepare=prep_conv,
            items=conv_batch,
            item_unit="image",
            nbytes=conv_batch * 3 * 32 * 32 * 8,
        )
    )

    # -- macro: raw capture -> ISP -> JPEG, the paper's device path ----
    def prep_capture():
        from ..codecs.jpeg import encode_jpeg
        from ..imaging.image import RawImage
        from ..isp.profiles import build_isp

        rng = np.random.default_rng(seed)
        mosaic = (rng.random((size, size), dtype=np.float32) * 0.8) + 0.1
        raw = RawImage(mosaic=mosaic)
        isp = build_isp("samsung_s10", out_height=96, out_width=96)
        return lambda: encode_jpeg(isp.process(raw), quality=85)

    cases.append(
        BenchCase(
            name="capture_pipeline",
            prepare=prep_capture,
            items=pixels,
            item_unit="px",
            nbytes=pixels * 4,
        )
    )

    return cases
