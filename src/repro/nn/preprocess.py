"""Model input preprocessing.

One canonical path from any :class:`~repro.imaging.image.ImageBuffer` to
the tensor MicroMobileNet consumes: bilinear resize to the model
resolution, scale to ``[-1, 1]`` (MobileNet's convention), and transpose
to NCHW. Keeping this in exactly one place matters for the reproduction:
the paper's §7 shows instability can enter through *loading* differences,
so everything that is *not* under test must be byte-identical across
devices and experiments.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

import numpy as np

from ..imaging.image import ImageBuffer
from ..imaging.ops import bilinear_resize

__all__ = ["MODEL_INPUT_SIZE", "to_model_input"]

#: Spatial resolution MicroMobileNet was designed for.
MODEL_INPUT_SIZE = 32


def to_model_input(
    images: Sequence[ImageBuffer] | ImageBuffer,
    size: int = MODEL_INPUT_SIZE,
) -> np.ndarray:
    """Convert image buffer(s) to a ``(N, 3, size, size)`` float32 tensor.

    Accepts a single buffer or a sequence; always returns a batched
    tensor. Inputs are quantized through uint8 first — the model only
    ever sees what survived an 8-bit image file, as on a real phone.
    """
    if isinstance(images, ImageBuffer):
        images = [images]
    batch: List[np.ndarray] = []
    for buf in images:
        pixels = buf.to_uint8().astype(np.float32) / 255.0
        resized = bilinear_resize(pixels, size, size)
        batch.append(resized.transpose(2, 0, 1))
    stacked = np.stack(batch, axis=0)
    return ((stacked - 0.5) / 0.5).astype(np.float32)
