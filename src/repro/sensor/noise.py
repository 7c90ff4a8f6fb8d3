"""Sensor noise models.

Image acquisition always adds noise (Boncelet 2009, cited by the paper in
§2.2): photon shot noise, read noise, dark current, fixed-pattern
photo-response non-uniformity (PRNU), and correlated row noise. This is
the stochastic floor that makes two back-to-back photos from the *same*
phone differ (paper Fig. 1), and the per-device parameters are one of the
axes along which phones diverge.

All noise operates on linear-light signal normalized to [0, 1] where 1.0
is sensor saturation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..lint.contracts import tensor_contract

__all__ = ["SensorNoiseModel"]


@dataclass(frozen=True)
class SensorNoiseModel:
    """Parameters of a sensor's noise behaviour.

    Attributes
    ----------
    full_well_electrons:
        Effective full-well capacity; shot noise scales as
        ``sqrt(signal * full_well) / full_well``, so bigger photosites
        (flagship phones) are cleaner.
    read_noise:
        RMS read noise as a fraction of full scale.
    dark_current:
        Mean dark signal as a fraction of full scale (adds both offset and
        its own shot noise).
    prnu:
        RMS of the fixed per-pixel gain error (typically under 1%).
    row_noise:
        RMS of per-row offset noise (banding).
    seed:
        Seeds the *fixed-pattern* component only; the temporal components
        draw from the per-capture RNG.
    """

    full_well_electrons: float = 25000.0
    read_noise: float = 0.002
    dark_current: float = 0.0005
    prnu: float = 0.005
    row_noise: float = 0.0005
    seed: int = 0

    def __post_init__(self) -> None:
        if self.full_well_electrons <= 0:
            raise ValueError("full_well_electrons must be positive")
        for name in ("read_noise", "dark_current", "prnu", "row_noise"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")

    @tensor_contract("_, _ -> (H, W) float32")
    def prnu_map(self, height: int, width: int) -> np.ndarray:
        """The sensor's fixed per-pixel gain field (deterministic)."""
        rng = np.random.default_rng(self.seed)
        return (1.0 + rng.normal(0.0, self.prnu, (height, width))).astype(np.float32)

    @tensor_contract("(H, W) float32, _ -> (H, W) float32")
    def apply(self, signal: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """Add all noise components to a linear [0, 1] mosaic signal.

        Fixed-pattern noise (PRNU) is deterministic per sensor; temporal
        noise (shot, read, dark, row) is drawn from ``rng`` so repeat
        captures differ. One capture of :meth:`apply_batch`.
        """
        (noisy,) = self.apply_batch(signal, [rng])
        return noisy

    @tensor_contract("(H, W) float32, _ -> (N, ?, ?) float32")
    def apply_batch(
        self, signal: np.ndarray, rngs: Sequence[np.random.Generator]
    ) -> np.ndarray:
        """Noise for ``len(rngs)`` repeat captures of one exposure.

        One shared pre-noise ``signal`` is observed through ``len(rngs)``
        independent temporal-noise draws. The fixed-pattern gain and the
        shot-noise sigma depend only on ``signal``, so they are computed
        once and broadcast; each generator then draws its components in a
        fixed order (shot, dark, read, row), so item ``i`` depends only
        on ``rngs[i]`` and equals ``apply(signal, rngs[i])``.
        """
        signal = np.asarray(signal, dtype=np.float32)
        h, w = signal.shape
        n = len(rngs)
        if n == 0:
            return np.empty((0, h, w), dtype=np.float32)

        # Shared (rng-independent) terms: the fixed-pattern gain, then the
        # photon shot noise sigma (Gaussian approximation to Poisson).
        noisy0 = signal * self.prnu_map(h, w)
        electrons = np.clip(noisy0, 0.0, 1.0) * self.full_well_electrons
        shot_sigma = np.sqrt(np.maximum(electrons, 0.0)) / self.full_well_electrons

        # Per-generator draws: shot, dark current (its own shot noise),
        # read noise, and one row-banding offset per row.
        shot_draws = np.empty((n, h, w), dtype=np.float32)
        dark_draws = np.empty((n, h, w), dtype=np.float32) if self.dark_current > 0 else None
        read_draws = np.empty((n, h, w), dtype=np.float32) if self.read_noise > 0 else None
        row_draws = np.empty((n, h, 1), dtype=np.float32) if self.row_noise > 0 else None
        dark_sigma = (
            np.sqrt(self.dark_current * self.full_well_electrons) / self.full_well_electrons
        )
        for i, rng in enumerate(rngs):
            shot_draws[i] = rng.normal(0.0, 1.0, (h, w)).astype(np.float32)
            if dark_draws is not None:
                dark_draws[i] = rng.normal(0.0, dark_sigma, (h, w)).astype(np.float32)
            if read_draws is not None:
                read_draws[i] = rng.normal(0.0, self.read_noise, (h, w)).astype(np.float32)
            if row_draws is not None:
                row_draws[i] = rng.normal(0.0, self.row_noise, (h, 1)).astype(np.float32)

        # Sum the components; dark current also adds its mean offset.
        noisy = noisy0[None, :, :] + shot_draws * shot_sigma[None, :, :]
        if dark_draws is not None:
            noisy = noisy + self.dark_current + dark_draws
        if read_draws is not None:
            noisy = noisy + read_draws
        if row_draws is not None:
            noisy = noisy + row_draws
        return noisy.astype(np.float32)
