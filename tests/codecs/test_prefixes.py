"""Every prefix of a valid file decodes or raises ``ValueError``.

A file cut short — at any byte, including inside a marker, chunk or
segment header — must fail with the decoders' one error type, never an
``IndexError`` or ``struct.error`` from the parser underneath.
"""

import numpy as np
import pytest

from repro.codecs.heif import encode_heif
from repro.codecs.jpeg import decode_jpeg, encode_jpeg
from repro.codecs.png import encode_png
from repro.codecs.registry import decode_any
from repro.codecs.webp import encode_webp
from repro.imaging.image import ImageBuffer

ENCODERS = {
    "jpeg": lambda image: encode_jpeg(image, quality=80),
    "png": encode_png,
    "webp": lambda image: encode_webp(image, quality=75),
    "heif": lambda image: encode_heif(image, quality=80),
}

DECODERS = {"jpeg": [decode_jpeg, decode_any]}


def _image() -> ImageBuffer:
    pixels = np.random.default_rng(0).random((24, 32, 3)).astype(np.float32)
    return ImageBuffer(pixels)


@pytest.mark.parametrize("fmt", sorted(ENCODERS))
def test_every_prefix_decodes_or_raises_value_error(fmt):
    data = ENCODERS[fmt](_image())
    for decode in DECODERS.get(fmt, [decode_any]):
        decode(data)  # the whole file decodes
        leaked = []
        for cut in range(len(data)):
            try:
                decode(data[:cut])
            except ValueError:
                pass
            except Exception as exc:  # noqa: BLE001 - the leak under test
                leaked.append((cut, type(exc).__name__))
        assert not leaked, f"{decode.__name__}: {len(leaked)} leaks, first {leaked[:5]}"
