"""Core image containers used throughout the library.

Two containers cover every stage of the capture pipeline:

``ImageBuffer``
    A processed image: float32, height x width x 3, RGB, values nominally in
    ``[0, 1]``. This is the currency of the scene renderer, the ISP output,
    the codecs, and the model input path.

``RawImage``
    A single-channel Bayer mosaic straight off the (simulated) sensor,
    together with the CFA layout and sensor calibration metadata (black
    level / white level). This is what the ISP consumes and what the
    "shoot raw" mitigation path (paper §9.2) serializes.

Both containers are deliberately thin: they validate shape/dtype once at the
boundary so downstream numeric code can operate on bare ``numpy`` arrays
without re-checking invariants.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

__all__ = ["ImageBuffer", "RawImage", "BAYER_PATTERNS", "quantize_uint8"]

#: Supported color-filter-array layouts, mapping pattern name to the 2x2 cell
#: of channel indices (0=R, 1=G, 2=B), row-major.  ``RGGB`` means the top-left
#: pixel of the sensor sees red, its right neighbour green, etc.
BAYER_PATTERNS = {
    "RGGB": np.array([[0, 1], [1, 2]], dtype=np.int64),
    "BGGR": np.array([[2, 1], [1, 0]], dtype=np.int64),
    "GRBG": np.array([[1, 0], [2, 1]], dtype=np.int64),
    "GBRG": np.array([[1, 2], [0, 1]], dtype=np.int64),
}


def quantize_uint8(pixels: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Quantize to 8-bit with round-half-away rounding, clipping first.

    Elementwise, so quantizing a subset of pixels gives the same values
    as quantizing the whole image and then taking that subset. ``out``
    (a float array of ``pixels``' shape, ``pixels`` itself included)
    holds the scaled intermediate instead of a new temporary.
    """
    scaled = np.clip(pixels, 0.0, 1.0, out=out)
    scaled *= 255.0
    scaled += 0.5
    return scaled.astype(np.uint8)


def _as_float32(array: np.ndarray) -> np.ndarray:
    array = np.asarray(array)
    if array.dtype != np.float32:
        array = array.astype(np.float32)
    return array


@dataclass
class ImageBuffer:
    """A float32 RGB image with values nominally in ``[0, 1]``.

    Parameters
    ----------
    pixels:
        Array of shape ``(height, width, 3)``. Any float dtype is accepted
        and converted to float32. Values may transiently exceed ``[0, 1]``
        (e.g. mid-ISP); call :meth:`clipped` before handing the image to a
        codec or the model.

    Examples
    --------
    >>> buf = ImageBuffer(np.zeros((4, 4, 3)))
    >>> buf.shape
    (4, 4, 3)
    """

    pixels: np.ndarray

    def __post_init__(self) -> None:
        self.pixels = _as_float32(self.pixels)
        if self.pixels.ndim != 3 or self.pixels.shape[2] != 3:
            raise ValueError(
                f"ImageBuffer expects (H, W, 3), got shape {self.pixels.shape}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_uint8(cls, array: np.ndarray) -> "ImageBuffer":
        """Build from an 8-bit image (values ``0..255``)."""
        array = np.asarray(array)
        if array.dtype != np.uint8:
            raise TypeError(f"expected uint8 array, got {array.dtype}")
        return cls(array.astype(np.float32) / 255.0)

    @classmethod
    def full(cls, height: int, width: int, value: float = 0.0) -> "ImageBuffer":
        """A constant-colored image (used for backgrounds and tests)."""
        return cls(np.full((height, width, 3), value, dtype=np.float32))

    # ------------------------------------------------------------------
    # Views and conversions
    # ------------------------------------------------------------------
    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def shape(self) -> Tuple[int, int, int]:
        return tuple(self.pixels.shape)  # type: ignore[return-value]

    def to_uint8(self) -> np.ndarray:
        """Quantize to 8-bit (:func:`quantize_uint8`)."""
        return quantize_uint8(self.pixels)

    def clipped(self) -> "ImageBuffer":
        """Return a copy with values clipped into ``[0, 1]``."""
        return ImageBuffer(np.clip(self.pixels, 0.0, 1.0))

    def copy(self) -> "ImageBuffer":
        return ImageBuffer(self.pixels.copy())

    # ------------------------------------------------------------------
    # Arithmetic conveniences (return new buffers; never mutate)
    # ------------------------------------------------------------------
    def scaled(self, gain: float) -> "ImageBuffer":
        return ImageBuffer(self.pixels * np.float32(gain))

    def __eq__(self, other: object) -> bool:  # pragma: no cover - trivial
        if not isinstance(other, ImageBuffer):
            return NotImplemented
        return bool(np.array_equal(self.pixels, other.pixels))


@dataclass
class RawImage:
    """A Bayer-mosaiced sensor readout plus calibration metadata.

    Parameters
    ----------
    mosaic:
        ``(H, W)`` float32 array of normalized sensor values. Values are in
        ADC-normalized units: ``black_level`` maps to the sensor's dark
        response and ``white_level`` to saturation.
    pattern:
        One of ``"RGGB"``, ``"BGGR"``, ``"GRBG"``, ``"GBRG"``.
    black_level / white_level:
        Calibration points in the same normalized units as ``mosaic``.
    wb_gains:
        Per-channel (R, G, B) white-balance gains measured by the camera at
        capture time. The ISP may use or ignore these.
    """

    mosaic: np.ndarray
    pattern: str = "RGGB"
    black_level: float = 0.0625  # 64/1024, a common 10-bit sensor pedestal
    white_level: float = 1.0
    wb_gains: Tuple[float, float, float] = (1.0, 1.0, 1.0)
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.mosaic = _as_float32(self.mosaic)
        if self.mosaic.ndim != 2:
            raise ValueError(f"RawImage expects (H, W), got {self.mosaic.shape}")
        if self.pattern not in BAYER_PATTERNS:
            raise ValueError(
                f"unknown Bayer pattern {self.pattern!r}; "
                f"expected one of {sorted(BAYER_PATTERNS)}"
            )
        if self.mosaic.shape[0] % 2 or self.mosaic.shape[1] % 2:
            raise ValueError("Bayer mosaic dimensions must be even")
        if not self.black_level < self.white_level:
            raise ValueError("black_level must be below white_level")

    @property
    def height(self) -> int:
        return int(self.mosaic.shape[0])

    @property
    def width(self) -> int:
        return int(self.mosaic.shape[1])

    def channel_mask(self, channel: int) -> np.ndarray:
        """Boolean ``(H, W)`` mask of photosites that sample ``channel``."""
        cell = BAYER_PATTERNS[self.pattern]
        tiled = np.tile(cell, (self.height // 2, self.width // 2))
        return tiled == channel

    def copy(self) -> "RawImage":
        return RawImage(
            mosaic=self.mosaic.copy(),
            pattern=self.pattern,
            black_level=self.black_level,
            white_level=self.white_level,
            wb_gains=self.wb_gains,
            metadata=dict(self.metadata),
        )
