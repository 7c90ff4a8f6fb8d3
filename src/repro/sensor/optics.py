"""Lens and optics models.

Per-device optics are one of the paper's instability axes ("differences
in the device sensors ... camera lenses", §1/§11). We model the three
dominant, device-characteristic effects:

* vignetting — radial brightness falloff (cos^4 law scaled by strength),
* lateral chromatic aberration — per-channel radial magnification error,
* defocus / diffraction blur — a Gaussian PSF.

All operate on linear-light RGB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..imaging.ops import affine_warp, gaussian_blur

__all__ = ["LensModel"]


@dataclass(frozen=True)
class LensModel:
    """Optical characteristics of one camera module.

    Attributes
    ----------
    vignetting:
        Brightness loss at the image corner relative to center (0 = none,
        0.3 = corners 30% darker).
    chromatic_aberration:
        Relative radial magnification difference between the red and blue
        channels (e.g. 0.002 -> red is magnified 0.2% more than green and
        blue 0.2% less).
    blur_sigma:
        Gaussian PSF sigma in pixels at the working resolution.
    """

    vignetting: float = 0.1
    chromatic_aberration: float = 0.0
    blur_sigma: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.vignetting < 1.0:
            raise ValueError("vignetting must be in [0, 1)")
        if self.blur_sigma < 0:
            raise ValueError("blur_sigma must be non-negative")

    def _vignette_field(self, height: int, width: int) -> np.ndarray:
        ys = np.linspace(-1.0, 1.0, height, dtype=np.float32)
        xs = np.linspace(-1.0, 1.0, width, dtype=np.float32)
        yy, xx = np.meshgrid(ys, xs, indexing="ij")
        r2 = (yy**2 + xx**2) / 2.0  # 1.0 at the corners
        return 1.0 - np.float32(self.vignetting) * r2**2

    def apply(self, image: np.ndarray) -> np.ndarray:
        """Apply blur, chromatic aberration, then vignetting."""
        out = np.asarray(image, dtype=np.float32)
        if out.ndim != 3 or out.shape[2] != 3:
            raise ValueError("LensModel expects (H, W, 3) input")
        h, w = out.shape[:2]

        if self.blur_sigma > 0:
            out = gaussian_blur(out, self.blur_sigma)

        if self.chromatic_aberration != 0.0:
            cy, cx = (h - 1) / 2.0, (w - 1) / 2.0
            center = np.array([cy, cx])
            channels = []
            for channel, scale in ((0, 1.0 + self.chromatic_aberration), (1, 1.0), (2, 1.0 - self.chromatic_aberration)):
                if scale == 1.0:
                    # Green is the reference: its warp is an exact identity.
                    channels.append(out[..., channel])
                    continue
                matrix = np.eye(2) / scale
                offset = center - matrix @ center
                channels.append(
                    affine_warp(out[..., channel], matrix, offset=offset, order=1)
                )
            out = np.stack(channels, axis=-1)

        out = out * self._vignette_field(h, w)[..., None]
        return out.astype(np.float32)
