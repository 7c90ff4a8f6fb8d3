"""Model input preprocessing.

One canonical path from any :class:`~repro.imaging.image.ImageBuffer` to
the tensor MicroMobileNet consumes: quantize to uint8, bilinear resize to
the model resolution, scale to ``[-1, 1]`` (MobileNet's convention), and
transpose to NCHW. Keeping this in exactly one place matters for the
reproduction: the paper's §7 shows instability can enter through
*loading* differences, so everything that is *not* under test must be
byte-identical across devices and experiments.

The order of the work is not the order of the definition. Quantization
is elementwise, so the resize gathers its four corner samples from the
float pixels first and quantizes only those (4 x 32 x 32 pixels a frame
at 96 -> 32 instead of 96 x 96); the blend is the same arithmetic on the
same values, so the tensor is bit-identical to resizing the quantized
image. Frames of equal shape share one corner buffer.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from ..imaging.image import ImageBuffer, quantize_uint8
from ..imaging.ops import bilinear_corners, bilinear_lerp

__all__ = ["MODEL_INPUT_SIZE", "to_model_input"]

#: Spatial resolution MicroMobileNet was designed for.
MODEL_INPUT_SIZE = 32


def _to_unit(pixels: np.ndarray) -> np.ndarray:
    """Turn float pixels, in place, into what survives an 8-bit file, in ``[0, 1]``."""
    np.copyto(pixels, quantize_uint8(pixels, out=pixels))
    pixels /= 255.0
    return pixels


def _resize_quantized(frames: List[np.ndarray], size: int) -> np.ndarray:
    """Quantized, resized ``(N, size, size, 3)`` frames of equal-shape pixels."""
    if frames[0].shape[:2] == (size, size):
        return _to_unit(np.stack(frames))
    corners, wy, wx = bilinear_corners(frames, size, size)
    return bilinear_lerp(_to_unit(corners), wy, wx)


def to_model_input(
    images: Sequence[ImageBuffer] | ImageBuffer,
    size: int = MODEL_INPUT_SIZE,
) -> np.ndarray:
    """Convert image buffer(s) to a ``(N, 3, size, size)`` float32 tensor.

    Accepts a single buffer or a sequence; always returns a batched
    tensor, in input order. Inputs are quantized through uint8 first —
    the model only ever sees what survived an 8-bit image file, as on a
    real phone. Callers bound the working set by the number of frames
    they pass (``DeviceRuntime.predict`` passes one inference batch).
    """
    if isinstance(images, ImageBuffer):
        images = [images]
    by_shape: Dict[tuple, List[int]] = {}
    for i, buf in enumerate(images):
        by_shape.setdefault(buf.pixels.shape, []).append(i)
    out = np.empty((len(images), 3, size, size), dtype=np.float32)
    for indices in by_shape.values():
        frames = [images[i].pixels for i in indices]
        out[indices] = _resize_quantized(frames, size).transpose(0, 3, 1, 2)
    out -= 0.5
    out /= 0.5
    return out
