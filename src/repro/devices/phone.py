"""The phone model: sensor + ISP + codec + OS loader, end to end.

``Phone.photograph(radiance, rng)`` is the full capture path a real
phone app exercises — expose the sensor, develop through the vendor ISP,
save in the vendor's default format — returning the *file bytes*, because
that is the artifact that crosses device boundaries in the paper's
experiments. ``Phone.load(bytes)`` then decodes a file the way this
phone's OS would.

The raw path (``photograph_raw``) bypasses the ISP and codec entirely,
returning a DNG-like container; it exists on the two devices the paper
found to support raw capture (Galaxy S10, iPhone XR) and feeds the §9.2
mitigation.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..codecs.dng import encode_dng
from ..codecs.registry import get_codec
from ..imaging.image import ImageBuffer, RawImage
from ..isp.pipeline import ISPPipeline
from ..isp.profiles import build_isp
from ..sensor.sensor import BayerSensor
from .profiles import DeviceProfile

__all__ = ["Phone"]


class Phone:
    """A concrete device instance built from a :class:`DeviceProfile`."""

    def __init__(self, profile: DeviceProfile) -> None:
        self.profile = profile
        self.sensor = BayerSensor(profile.sensor)
        self.isp: ISPPipeline = build_isp(profile.isp)
        self._codec = get_codec(profile.save_format)

    @property
    def name(self) -> str:
        return self.profile.name

    @property
    def codec(self):
        """The vendor default save codec (from ``profile.save_format``)."""
        return self._codec

    # ------------------------------------------------------------------
    # Capture paths
    # ------------------------------------------------------------------
    def capture_raw(self, radiance: ImageBuffer, rng: np.random.Generator) -> RawImage:
        """Expose one frame (a batch of one); returns the raw mosaic."""
        return self.sensor.capture(radiance, rng)

    def capture_raw_batch(
        self,
        radiances: Sequence[ImageBuffer],
        rngs: Sequence[np.random.Generator],
    ) -> List[RawImage]:
        """Expose one frame per ``(radiances[i], rngs[i])`` in one pass.

        The sensor front end runs once per distinct radiance buffer, so
        repeats and a device's several scenes share one call. Frame ``i``
        is bit-identical to ``capture_raw(radiances[i], rngs[i])``.
        """
        return self.sensor.capture_batch(radiances, rngs)

    def develop(self, raw: RawImage) -> ImageBuffer:
        """Run a raw capture through this phone's vendor ISP (a batch of one)."""
        return self.isp.process(raw)

    def develop_batch(self, raws: Sequence[RawImage]) -> List[ImageBuffer]:
        """Develop a batch through the vendor ISP in one vectorized pass.

        Item ``i`` is bit-identical to ``develop(raws[i])``.
        """
        return self.isp.process_batch(raws)

    def photograph(
        self,
        radiance: ImageBuffer,
        rng: np.random.Generator,
        quality: Optional[int] = None,
        format_override: Optional[str] = None,
    ) -> bytes:
        """Full default camera path: capture, develop, save. Returns file bytes.

        ``format_override`` forces a save format other than the vendor
        default (e.g. the §9.2 experiment shoots JPEG on the iPhone, whose
        default is HEIF).
        """
        raw = self.capture_raw(radiance, rng)
        developed = self.develop(raw)
        codec = get_codec(format_override) if format_override else self._codec
        q = quality if quality is not None else self.profile.save_quality
        if codec.default_quality is None:
            return codec.encode(developed)
        return codec.encode(developed, quality=q)

    def photograph_raw(self, radiance: ImageBuffer, rng: np.random.Generator) -> bytes:
        """Shoot raw (DNG-like container). Only on raw-capable devices."""
        if not self.profile.supports_raw:
            raise RuntimeError(
                f"{self.name} does not support raw capture "
                "(in the paper only the Galaxy S10 and iPhone XR did)"
            )
        raw = self.capture_raw(radiance, rng)
        return encode_dng(raw)

    # ------------------------------------------------------------------
    # Load path (the OS side, exercised by the §7 experiment)
    # ------------------------------------------------------------------
    def load(self, data: bytes) -> ImageBuffer:
        """Decode an image file with this phone's OS decoder."""
        return self.profile.os_decoder.load(data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Phone({self.name!r}, isp={self.profile.isp!r}, fmt={self.profile.save_format!r})"
