"""Picklable fleet work units and the pure worker that executes them.

A :class:`CaptureUnit` is one independent slice of an experiment — one
device photographing one displayed radiance field, or one raw frame
being developed through one ISP/codec treatment. Units carry plain
arrays and dataclasses only, so they cross process boundaries cheaply,
and :func:`execute_unit` is a pure function of the unit (all randomness
comes from the unit's own seed entropy), which is what makes parallel
execution bit-identical to serial.

Unit kinds
----------
``photograph``
    Full default camera path: sensor -> vendor ISP -> codec -> OS-side
    decode. Returns the decoded pixels and the encoded file size.
``raw``
    Sensor exposure only; returns the Bayer mosaic plus calibration
    metadata (the §5/§6 raw-capture-bank corpus).
``raw_vs_jpeg``
    One exposure, two arms (§9.2): the phone's own ISP + JPEG file, and
    the same raw developed by a consistent conversion ISP.
``develop``
    No camera: an existing raw frame through a named software ISP,
    optionally round-tripped through a codec (§5 tables, §6 ISPs).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from ..codecs.jpeg import jpeg_roundtrip_batch
from ..codecs.registry import count_encoded, decode_any, get_codec
from ..devices.phone import Phone
from ..devices.profiles import DeviceProfile
from ..imaging.image import ImageBuffer, RawImage
from ..isp.profiles import build_isp
from ..isp.stages import Resize
from .cache import fingerprint
from .seeds import unit_entropy  # noqa: F401  (re-exported convenience)

__all__ = [
    "CaptureUnit",
    "execute_unit",
    "execute_unit_group",
    "execute_unit_group_observed",
    "group_signature",
    "photograph_output_shape",
    "unit_cache_key",
    "raw_to_payload",
    "payload_to_raw",
]

UNIT_KINDS = ("photograph", "raw", "raw_vs_jpeg", "develop")

#: Cache-format version; bump when execute_unit's output changes shape.
_CACHE_VERSION = "unit-v1"


# ----------------------------------------------------------------------
# RawImage <-> flat array payload (cache/IPC friendly)
# ----------------------------------------------------------------------
def raw_to_payload(raw: RawImage, prefix: str = "") -> Dict[str, np.ndarray]:
    """Flatten a :class:`RawImage` into a ``{name: ndarray}`` payload."""
    return {
        f"{prefix}mosaic": raw.mosaic,
        f"{prefix}pattern": np.array(raw.pattern),
        f"{prefix}black_level": np.float64(raw.black_level),
        f"{prefix}white_level": np.float64(raw.white_level),
        f"{prefix}wb_gains": np.asarray(raw.wb_gains, dtype=np.float64),
        f"{prefix}meta_json": np.array(json.dumps(raw.metadata, sort_keys=True)),
    }


def payload_to_raw(payload: Dict[str, np.ndarray], prefix: str = "") -> RawImage:
    """Rebuild a :class:`RawImage` from :func:`raw_to_payload` output."""
    wb = np.asarray(payload[f"{prefix}wb_gains"], dtype=np.float64)
    return RawImage(
        mosaic=np.asarray(payload[f"{prefix}mosaic"], dtype=np.float32),
        pattern=str(payload[f"{prefix}pattern"]),
        black_level=float(payload[f"{prefix}black_level"]),
        white_level=float(payload[f"{prefix}white_level"]),
        wb_gains=(float(wb[0]), float(wb[1]), float(wb[2])),
        metadata=json.loads(str(payload[f"{prefix}meta_json"])),
    )


# ----------------------------------------------------------------------
# The unit
# ----------------------------------------------------------------------
@dataclass
class CaptureUnit:
    """One independent slice of fleet work.

    Attributes
    ----------
    kind:
        One of :data:`UNIT_KINDS`.
    profile:
        The capturing device (capture kinds only).
    radiance:
        ``(H, W, 3)`` float32 radiance pixels arriving at the device
        (capture kinds only).
    raw:
        A :func:`raw_to_payload` payload to develop (``develop`` only).
    entropy:
        The :func:`~repro.runner.seeds.unit_entropy` tuple seeding this
        unit's RNG (capture kinds only; ``develop`` is noise-free).
    options:
        Kind-specific knobs: ``quality``, ``format_override``, ``isp``,
        ``codec``, ``conversion_isp``.
    """

    kind: str
    profile: Optional[DeviceProfile] = None
    radiance: Optional[np.ndarray] = None
    raw: Optional[Dict[str, np.ndarray]] = None
    entropy: Tuple[int, ...] = ()
    options: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in UNIT_KINDS:
            raise ValueError(
                f"unknown unit kind {self.kind!r}; expected one of {UNIT_KINDS}"
            )
        if self.kind == "develop":
            if self.raw is None:
                raise ValueError("develop units need a raw payload")
        else:
            if self.profile is None or self.radiance is None:
                raise ValueError(f"{self.kind} units need a profile and radiance")
            if not self.entropy:
                raise ValueError(f"{self.kind} units need seed entropy")


def unit_cache_key(unit: CaptureUnit) -> str:
    """Content-addressed cache key for one unit.

    Parameters
    ----------
    unit:
        The :class:`CaptureUnit` to key.

    Returns
    -------
    A SHA-256 hex digest over everything that determines the unit's
    output — kind, device profile, radiance/raw pixels, seed entropy,
    and options (order-insensitive) — prefixed by :data:`_CACHE_VERSION`
    so format changes can't serve stale payloads. Two units with equal
    keys produce bit-identical payloads, which is what makes the cache
    output-neutral.
    """
    return fingerprint(
        (
            _CACHE_VERSION,
            unit.kind,
            unit.profile,
            unit.radiance,
            unit.raw,
            tuple(unit.entropy),
            sorted(unit.options.items(), key=lambda kv: kv[0]),
        )
    )


# ----------------------------------------------------------------------
# Execution (runs in worker processes — must stay import-light and pure)
# ----------------------------------------------------------------------
#: Per-process Phone memo: profiles are frozen, Phones are stateless, so
#: one instance per distinct profile per worker is safe and saves the
#: ISP-pipeline construction on every unit. Divergence between workers
#: is speed-only — the memo never influences a payload bit.
_PHONE_MEMO: Dict[str, Phone] = {}


def _phone_for(profile: DeviceProfile) -> Phone:
    key = fingerprint(profile)
    phone = _PHONE_MEMO.get(key)
    if phone is None:
        phone = Phone(profile)
        _PHONE_MEMO[key] = phone
    return phone


def execute_unit(unit: CaptureUnit) -> Dict[str, np.ndarray]:
    """Run one unit to completion: the per-unit reference path.

    Pure: the returned payload depends only on the unit itself (all
    randomness comes from ``unit.entropy``), which is the property the
    parallel==serial determinism suite relies on. Unlike the executor's
    fused :func:`execute_unit_group`, this path writes every file to
    bytes and parses them back with
    :func:`~repro.codecs.registry.decode_any`, so it independently checks
    the fused JPEG reconstruction. When observability is active, the
    whole execution is wrapped in a ``unit.execute`` span (annotated with
    the unit kind and device) whose children are the per-stage
    sensor/ISP/codec spans — timing only, never affecting the payload.

    Parameters
    ----------
    unit:
        The work unit; see :class:`CaptureUnit` for the per-kind
        requirements.

    Returns
    -------
    A flat ``{name: ndarray}`` payload (cache- and IPC-friendly); the
    exact key set depends on ``unit.kind``.
    """
    with obs.span(
        "unit.execute",
        kind=unit.kind,
        device=unit.profile.name if unit.profile is not None else "-",
    ):
        payload = _execute_unit_inner(unit)
    obs.count("fleet.units_executed")
    return payload


def _execute_unit_inner(unit: CaptureUnit) -> Dict[str, np.ndarray]:
    if unit.kind == "develop":
        return _execute_develop(unit)

    phone = _phone_for(unit.profile)
    rng = np.random.default_rng(tuple(unit.entropy))
    radiance = ImageBuffer(unit.radiance)

    if unit.kind == "photograph":
        data = phone.photograph(
            radiance,
            rng,
            quality=unit.options.get("quality"),
            format_override=unit.options.get("format_override"),
        )
        image = decode_any(data)
        return {
            "pixels": image.pixels,
            "encoded_size": np.int64(len(data)),
        }

    if unit.kind == "raw":
        return raw_to_payload(phone.capture_raw(radiance, rng))

    if unit.kind == "raw_vs_jpeg":
        raw = phone.capture_raw(radiance, rng)
        developed = phone.develop(raw)
        quality = unit.options.get("quality", phone.profile.save_quality)
        data = get_codec("jpeg").encode(developed, quality=quality)
        return {
            "jpeg_pixels": decode_any(data).pixels,
            "raw_pixels": _conversion_isp(unit).process(raw).pixels,
            "encoded_size": np.int64(len(data)),
        }

    raise ValueError(f"unknown unit kind {unit.kind!r}")  # pragma: no cover


def _conversion_isp(unit: CaptureUnit):
    """The consistent software ISP of a ``raw_vs_jpeg`` unit's raw arm."""
    return build_isp(str(unit.options.get("conversion_isp", "imagemagick")))


def group_signature(
    unit: CaptureUnit, _radiance_memo: Optional[Dict[int, str]] = None
) -> Optional[str]:
    """Fingerprint of a unit's fusable inputs (everything but entropy).

    Units sharing a signature are repeat captures of the same (kind,
    phone, scene, options): their execution differs only in the per-unit
    RNG stream, which is exactly what :func:`execute_unit_group`
    vectorizes over. Every capture kind (``photograph``, ``raw``,
    ``raw_vs_jpeg``) has one; ``develop`` units carry no capture to fuse
    and return ``None`` (they run as groups of one).

    ``_radiance_memo`` lets a caller grouping many units amortize the
    radiance digest across the (typical) case where every repeat of a
    scene shares one buffer object. Keyed by ``id``; only valid while the
    caller keeps the buffers alive, which is why it is caller-supplied
    rather than a module-level cache.
    """
    if unit.kind == "develop":
        return None
    if _radiance_memo is None:
        radiance_fp = fingerprint(unit.radiance)
    else:
        radiance_fp = _radiance_memo.get(id(unit.radiance))
        if radiance_fp is None:
            radiance_fp = fingerprint(unit.radiance)
            _radiance_memo[id(unit.radiance)] = radiance_fp
    return fingerprint(
        (
            unit.kind,
            unit.profile,
            radiance_fp,
            sorted(unit.options.items(), key=lambda kv: kv[0]),
        )
    )


def photograph_output_shape(profile: DeviceProfile) -> Optional[Tuple[int, int]]:
    """The ``(H, W)`` of a photograph unit's decoded pixels, if static.

    Derived from the profile ISP's Resize stage; the shared-memory
    fan-out uses it to preallocate output slabs. ``None`` when the ISP
    has no Resize stage (output then depends on the radiance size, and
    the fan-out pickles the payloads back instead).
    """
    phone = _phone_for(profile)
    for stage in reversed(phone.isp.stages):
        if isinstance(stage, Resize):
            return (stage.height, stage.width)
    return None


def _check_group(units: Sequence[CaptureUnit]) -> None:
    """Reject a group that is not repeats of one capture."""
    first = units[0]
    if first.kind == "develop":
        if len(units) != 1:
            raise ValueError("develop units run as groups of one")
        return
    for u in units[1:]:
        if (
            u.kind != first.kind
            or (u.profile is not first.profile and u.profile != first.profile)
            or (
                u.radiance is not first.radiance
                and not np.array_equal(u.radiance, first.radiance)
            )
            or u.options != first.options
        ):
            raise ValueError(
                "a unit group must share kind, profile, radiance and options"
            )


def _encode_decode(codec, images, quality) -> List[Tuple[bytes, ImageBuffer]]:
    """``[(file bytes, decoded image)]`` per image through ``codec``.

    JPEG takes the fused :func:`~repro.codecs.jpeg.jpeg_roundtrip_batch`
    (encode, then rebuild the decoded pixels from the encoder's own
    blocks — no bytes are parsed, so no decode is counted); other codecs
    encode and decode each image.
    """
    if codec.name == "jpeg":
        with obs.span("codec.encode", codec="jpeg"):
            pairs = jpeg_roundtrip_batch(images, quality=quality)
        for data, _img in pairs:
            count_encoded("jpeg", data)
        return pairs
    pairs = []
    for img in images:
        if codec.default_quality is None:
            data = codec.encode(img)
        else:
            data = codec.encode(img, quality=quality)
        pairs.append((data, decode_any(data)))
    return pairs


def execute_unit_group(units: Sequence[CaptureUnit]) -> List[Dict[str, np.ndarray]]:
    """Run a group of repeat captures in one fused pass.

    All units must share kind/profile/radiance/options and differ only in
    seed entropy (i.e. be repeats of one capture, as
    :func:`group_signature` groups them); a ``develop`` unit runs as a
    group of one. Payload ``i`` is bit-identical to
    ``execute_unit(units[i])`` — the sensor fans one shared exposure
    front end out over the per-unit RNGs, the ISP develops the stack as
    ``(N, H, W, C)``, and JPEG files go through the fused
    :func:`~repro.codecs.jpeg.jpeg_roundtrip_batch` encode+reconstruct.
    A single-unit group still wins: the fused roundtrip skips the decode
    marker parse and Huffman walk entirely.
    """
    units = list(units)
    if not units:
        return []
    _check_group(units)
    first = units[0]
    with obs.span(
        "unit.execute_group",
        kind=first.kind,
        device=first.profile.name if first.profile is not None else "-",
        units=len(units),
    ):
        if first.kind == "develop":
            payloads = [_execute_develop(first)]
        else:
            payloads = _execute_capture_group(units)
    for _ in units:
        obs.count("fleet.units_executed")
    return payloads


def _execute_capture_group(units: List[CaptureUnit]) -> List[Dict[str, np.ndarray]]:
    first = units[0]
    phone = _phone_for(first.profile)
    rngs = [np.random.default_rng(tuple(u.entropy)) for u in units]
    raws = phone.capture_raw_batch(ImageBuffer(first.radiance), rngs)
    if first.kind == "raw":
        return [raw_to_payload(raw) for raw in raws]

    images = phone.develop_batch(raws)
    if first.kind == "raw_vs_jpeg":
        quality = first.options.get("quality", phone.profile.save_quality)
        pairs = _encode_decode(get_codec("jpeg"), images, quality)
        converted = _conversion_isp(first).process_batch(raws)
        return [
            {
                "jpeg_pixels": img.pixels,
                "raw_pixels": conv.pixels,
                "encoded_size": np.int64(len(data)),
            }
            for (data, img), conv in zip(pairs, converted)
        ]

    fmt = first.options.get("format_override")
    codec = get_codec(str(fmt)) if fmt else phone.codec
    quality = first.options.get("quality")
    q = quality if quality is not None else phone.profile.save_quality
    return [
        {"pixels": img.pixels, "encoded_size": np.int64(len(data))}
        for data, img in _encode_decode(codec, images, q)
    ]


def execute_unit_group_observed(units: Sequence[CaptureUnit]):
    """Worker-side :func:`execute_unit_group` under a local observer.

    Runs the group under a fresh, process-local observer and returns
    ``(payloads, span_dicts, metrics_snapshot)`` so the spans and
    counters recorded inside a pool worker survive the process boundary;
    the parent merges them via :meth:`~repro.obs.trace.Tracer.absorb` and
    :meth:`~repro.obs.metrics.MetricsRegistry.merge`. The payloads are
    exactly what :func:`execute_unit_group` returns — observation adds
    side-band data, never changes results.
    """
    with obs.observed() as ob:
        payloads = execute_unit_group(units)
    return payloads, ob.tracer.to_dicts(), ob.metrics.snapshot()


def _execute_develop(unit: CaptureUnit) -> Dict[str, np.ndarray]:
    raw = payload_to_raw(unit.raw)
    image = build_isp(str(unit.options["isp"])).process(raw)
    codec_name = unit.options.get("codec")
    if not codec_name:
        return {"pixels": image.pixels, "encoded_size": np.int64(0)}
    codec = get_codec(str(codec_name))
    quality = unit.options.get("quality")
    if codec.default_quality is None:
        data = codec.encode(image)
    else:
        q = int(quality) if quality is not None else codec.default_quality
        data = codec.encode(image, quality=q)
    return {
        "pixels": codec.decode(data).pixels,
        "encoded_size": np.int64(len(data)),
    }
