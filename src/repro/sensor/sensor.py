"""The Bayer image sensor: radiance in, raw mosaic out.

:class:`BayerSensor` composes the optics and noise models into the full
image-formation chain of one camera module:

1. resample the scene radiance to the sensor's resolution,
2. apply lens effects (blur, chromatic aberration, vignetting),
3. apply per-channel spectral sensitivity (the sensor's native color
   response — why raw images need white balance at all),
4. exposure scaling,
5. sample through the color filter array (Bayer mosaic),
6. add noise (shot/read/dark/PRNU/row),
7. add the black-level pedestal and quantize at the ADC's bit depth.

The output is a :class:`~repro.imaging.image.RawImage` carrying the
calibration metadata an ISP (or the raw-inference mitigation path) needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Sequence

import numpy as np

from .. import obs
from ..imaging.color import gray_world_gains
from ..imaging.image import BAYER_PATTERNS, ImageBuffer, RawImage
from ..imaging.ops import bilinear_resize
from .noise import SensorNoiseModel
from .optics import LensModel

__all__ = ["BayerSensor", "SensorConfig"]


@dataclass(frozen=True)
class SensorConfig:
    """Static description of a camera module."""

    #: Sensor resolution (rows, cols); must be even for the Bayer mosaic.
    resolution: tuple = (96, 96)
    pattern: str = "RGGB"
    #: Per-channel spectral sensitivity relative to green.
    channel_sensitivity: tuple = (0.55, 1.0, 0.62)
    #: Nominal exposure gain applied to the radiance.
    exposure: float = 0.85
    #: ADC bit depth (10-bit is typical for phone sensors).
    adc_bits: int = 10
    #: Black-level pedestal as a fraction of full scale.
    black_level: float = 0.0625
    lens: LensModel = field(default_factory=LensModel)
    noise: SensorNoiseModel = field(default_factory=SensorNoiseModel)

    def __post_init__(self) -> None:
        h, w = self.resolution
        if h % 2 or w % 2:
            raise ValueError("sensor resolution must be even")
        if self.pattern not in BAYER_PATTERNS:
            raise ValueError(f"unknown Bayer pattern {self.pattern!r}")
        if not 2 <= self.adc_bits <= 16:
            raise ValueError("adc_bits must be in 2..16")
        if self.exposure <= 0:
            raise ValueError("exposure must be positive")


class BayerSensor:
    """A camera module that captures linear radiance into raw mosaics."""

    def __init__(self, config: SensorConfig | None = None) -> None:
        self.config = config or SensorConfig()

    def capture(self, radiance: ImageBuffer, rng: np.random.Generator) -> RawImage:
        """Expose one frame of the given radiance field (a batch of one).

        ``rng`` drives the temporal noise; two calls with different RNG
        states model two consecutive shutter actuations (the paper's
        Fig. 1 repeat-shot scenario).
        """
        return self.capture_batch(radiance, [rng])[0]

    def capture_batch(
        self, radiance: ImageBuffer, rngs: Sequence[np.random.Generator]
    ) -> List[RawImage]:
        """Expose ``len(rngs)`` repeat frames of one radiance field.

        Everything upstream of the temporal noise — optics, exposure, CFA
        sampling, and the as-shot AWB estimate — depends only on the
        radiance, so it is computed once and shared; the noise model then
        fans the shared mosaic out over the per-repeat generators. Frame
        ``i`` depends only on ``rngs[i]``, so it is bit-identical to
        ``capture(radiance, rngs[i])``.
        """
        cfg = self.config
        h, w = cfg.resolution
        if not rngs:
            return []

        with obs.span("sensor.capture_batch", frames=len(rngs)):
            with obs.span("sensor.optics"):
                linear = bilinear_resize(radiance.pixels, h, w)
                linear = cfg.lens.apply(linear)

            sens = np.asarray(cfg.channel_sensitivity, dtype=np.float32)
            exposed = linear * sens * np.float32(cfg.exposure)

            # Sample through the CFA: each photosite sees one channel.
            cell = BAYER_PATTERNS[cfg.pattern]
            channel_map = np.tile(cell, (h // 2, w // 2))
            mosaic = np.take_along_axis(
                exposed.reshape(h, w, 3), channel_map[..., None], axis=2
            )[..., 0]

            with obs.span("sensor.noise"):
                mosaics = cfg.noise.apply_batch(mosaic, rngs)

            # Pedestal, saturation, and ADC quantization.
            span = 1.0 - cfg.black_level
            mosaics = cfg.black_level + np.clip(mosaics, 0.0, 1.0) * span
            levels = (1 << cfg.adc_bits) - 1
            mosaics = np.round(np.clip(mosaics, 0.0, 1.0) * levels) / levels

            # As-shot white balance estimate (gray world over the exposed
            # RGB, before mosaicing — phones estimate this from the full
            # AWB stats).
            wb = gray_world_gains(exposed)

        wb_gains = (float(wb[0]), float(wb[1]), float(wb[2]))
        return [
            RawImage(
                mosaic=mosaics[i].astype(np.float32),
                pattern=cfg.pattern,
                black_level=cfg.black_level,
                white_level=1.0,
                wb_gains=wb_gains,
                metadata={"exposure": cfg.exposure, "adc_bits": cfg.adc_bits},
            )
            for i in range(len(rngs))
        ]
