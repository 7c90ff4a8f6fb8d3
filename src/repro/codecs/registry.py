"""Uniform codec interface and registry.

Everything downstream (device models, experiments, mitigation) talks to
codecs through :class:`Codec` so that "compress the same raw image into
JPEG / PNG / WebP / HEIF" — the paper's Table 3 experiment — is a loop
over registry entries, and new codecs can be registered by extensions.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass
from typing import Callable, Dict, List

from .. import obs
from ..imaging.image import ImageBuffer
from .heif import decode_heif, encode_heif
from .jpeg import JpegDecodeOptions, decode_jpeg, encode_jpeg
from .png import decode_png, encode_png
from .webp import decode_webp, encode_webp

__all__ = [
    "Codec",
    "get_codec",
    "available_codecs",
    "register_codec",
    "sniff_format",
    "decode_any",
    "count_encoded",
]


@dataclass(frozen=True)
class Codec:
    """A named image codec with symmetric encode/decode callables.

    ``lossless`` is advertised so experiments can assert invariants (e.g.
    the §7 result that PNG shows zero cross-OS instability relies on it).
    """

    name: str
    encode: Callable[..., bytes]
    decode: Callable[[bytes], ImageBuffer]
    lossless: bool
    default_quality: int | None = None

    def roundtrip(self, image: ImageBuffer, **params) -> ImageBuffer:
        """Encode then decode, returning the reconstructed image."""
        return self.decode(self.encode(image, **params))


# Populated only by the register_codec calls at the bottom of this module
# (import time), so every process — parent or spawned worker — sees the
# identical read-only mapping.
_REGISTRY: Dict[str, Codec] = {}


def count_encoded(codec_name: str, data: bytes) -> None:
    """Record one encoded file in the active observer's metrics.

    The single source of the ``codec.bytes_encoded`` /
    ``codec.encoded.<name>`` / ``codec.encoded_size`` counters: the
    registry's wrapped ``encode`` and the fused JPEG roundtrip (which
    calls the encoder directly) both report through here.
    """
    obs.count("codec.bytes_encoded", len(data))
    obs.count(f"codec.encoded.{codec_name}")
    obs.observe("codec.encoded_size", len(data))


def _instrumented(codec: Codec) -> Codec:
    """Wrap a codec's callables with tracing spans and byte counters.

    The wrappers are transparent when no observer is active (one global
    read each), preserve ``__qualname__``/``__module__`` via
    ``functools.wraps`` (so content fingerprints of callables are
    unchanged), and never alter the bytes or pixels flowing through.
    """
    if getattr(codec.encode, "_obs_instrumented", False):
        return codec  # already wrapped (e.g. re-registered with overwrite)
    encode_fn, decode_fn = codec.encode, codec.decode

    @functools.wraps(encode_fn)
    def encode(image: ImageBuffer, **params) -> bytes:
        ob = obs.active()
        if ob is None:
            return encode_fn(image, **params)
        with ob.tracer.span("codec.encode", codec=codec.name):
            data = encode_fn(image, **params)
        count_encoded(codec.name, data)
        return data

    @functools.wraps(decode_fn)
    def decode(data: bytes) -> ImageBuffer:
        ob = obs.active()
        if ob is None:
            return decode_fn(data)
        with ob.tracer.span("codec.decode", codec=codec.name):
            image = decode_fn(data)
        ob.metrics.count("codec.bytes_decoded", len(data))
        return image

    encode._obs_instrumented = True
    decode._obs_instrumented = True
    return dataclasses.replace(codec, encode=encode, decode=decode)


def register_codec(codec: Codec, overwrite: bool = False) -> None:
    """Add a codec to the global registry (instrumented; see above)."""
    if codec.name in _REGISTRY and not overwrite:
        raise ValueError(f"codec {codec.name!r} already registered")
    _REGISTRY[codec.name] = _instrumented(codec)


def get_codec(name: str) -> Codec:
    """Look up a codec by name (``jpeg``, ``png``, ``webp``, ``heif``)."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown codec {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_codecs() -> List[str]:
    return sorted(_REGISTRY)


def decode_any(data: bytes) -> ImageBuffer:
    """Decode a byte stream with the reference decoder for its format.

    This is the *experimenter's* loader — the consistent decode path used
    when evaluating photos off-device — as opposed to
    :class:`repro.devices.os_sim.OSDecoderProfile`, which models how a
    particular phone OS decodes.
    """
    return get_codec(sniff_format(data)).decode(data)


def sniff_format(data: bytes) -> str:
    """Identify a byte stream's format from its magic bytes."""
    if data[:2] == b"\xff\xd8":
        return "jpeg"
    if data[:8] == b"\x89PNG\r\n\x1a\n":
        return "png"
    if data[:4] == b"RPWB":
        return "webp"
    if data[:4] == b"RPHF":
        return "heif"
    if data[:4] == b"RPDN":
        return "dng"
    raise ValueError("unrecognized image format")


register_codec(
    Codec(
        name="jpeg",
        encode=encode_jpeg,
        decode=lambda data: decode_jpeg(data, JpegDecodeOptions()),
        lossless=False,
        default_quality=85,
    )
)
register_codec(
    Codec(name="png", encode=encode_png, decode=decode_png, lossless=True)
)
register_codec(
    Codec(
        name="webp",
        encode=encode_webp,
        decode=decode_webp,
        lossless=False,
        default_quality=40,
    )
)
register_codec(
    Codec(
        name="heif",
        encode=encode_heif,
        decode=decode_heif,
        lossless=False,
        default_quality=80,
    )
)
