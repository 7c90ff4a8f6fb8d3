"""Extension experiments: the paper's future-work axes (§11).

The paper scopes out "variations in cameras and lenses, lighting and
visibility conditions" as future sources of instability. The simulator
makes them measurable today:

* :class:`LightingVariationExperiment` — the same objects re-staged under
  different studio brightness / color temperature, photographed by one
  phone; instability across lighting levels.
* :class:`LensVariationExperiment` — unit-to-unit optics variation: the
  *same phone model* with slightly different lens builds (blur /
  vignetting tolerances), as happens across manufacturing batches;
  instability across units.

Both reuse the §2.2 metric unchanged: an "environment" is just whatever
varies.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Optional, Sequence

import numpy as np

from ..core.records import ExperimentResult
from ..devices.profiles import DeviceProfile, capture_fleet
from ..nn.model import Model
from ..runner.cache import CaptureCache
from ..scenes.dataset import build_dataset
from .common import Study, capture_units, classify, present, present_items

__all__ = ["LightingVariationExperiment", "LensVariationExperiment"]


class LightingVariationExperiment(Study):
    """Instability across lighting conditions, one phone (§11 future work).

    The phone is the paper's Galaxy S10 (``capture_fleet()[0]``). Each
    condition's frames are one inference call.
    """

    batch_size = None

    #: (label, brightness multiplier, warmth) staging conditions.
    CONDITIONS = (
        ("dim_warm", 0.75, 0.06),
        ("nominal", 1.0, 0.0),
        ("bright_cool", 1.15, -0.06),
    )

    def run(self, per_class: int = 8) -> ExperimentResult:
        dataset = build_dataset(per_class=per_class, seed=self.seed)
        chunks = []
        for label, brightness, warmth in self.CONDITIONS:
            relit = [
                replace(item, scene=replace(item.scene, brightness=brightness, warmth=warmth))
                for item in dataset
            ]
            chunks.append((label, present_items(relit, self.seed, cache=self.cache)))
        profile = capture_fleet()[0]
        units = capture_units(
            [(label, profile, shown) for label, shown in chunks], self.seed
        )
        return classify(
            self.runtime, "lighting_variation", self.executor.run(units), chunks
        )


class LensVariationExperiment(Study):
    """Instability across manufacturing units of one phone model.

    Models the paper's observation (§6, citing Rameshwar 2019) that units
    of the *same phone model* (the Galaxy S10) can differ in their
    imaging components: each simulated unit perturbs the nominal lens
    (blur, vignetting) within plausible assembly tolerances. Each unit's
    frames are one inference call.
    """

    batch_size = None

    #: Per-unit lens perturbation bounds: blur sigma and vignetting move
    #: by up to these amounts either way.
    BLUR_TOLERANCE = 0.15
    VIGNETTE_TOLERANCE = 0.03

    def __init__(
        self,
        model: Optional[Model] = None,
        units: int = 4,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        if units < 2:
            raise ValueError("need at least two units to compare")
        super().__init__(model, seed, workers, cache)
        self.profile = capture_fleet()[0]
        self.units = units

    def _unit_profiles(self) -> Sequence[DeviceProfile]:
        rng = np.random.default_rng(self.seed + 77)
        base = self.profile
        units = []
        for i in range(self.units):
            lens = base.sensor.lens
            new_lens = replace(
                lens,
                blur_sigma=max(
                    0.1, lens.blur_sigma + float(rng.uniform(-1, 1)) * self.BLUR_TOLERANCE
                ),
                vignetting=float(
                    np.clip(
                        lens.vignetting
                        + rng.uniform(-1, 1) * self.VIGNETTE_TOLERANCE,
                        0.0,
                        0.9,
                    )
                ),
            )
            sensor = replace(
                base.sensor,
                lens=new_lens,
                noise=replace(base.sensor.noise, seed=base.sensor.noise.seed + i),
            )
            units.append(replace(base, name=f"{base.name}#unit{i}", sensor=sensor))
        return units

    def run(self, per_class: int = 8) -> ExperimentResult:
        displayed = present(per_class, self.seed, cache=self.cache)
        arms = [(unit.name, unit, displayed) for unit in self._unit_profiles()]
        return classify(
            self.runtime,
            "lens_variation",
            self.executor.run(capture_units(arms, self.seed)),
            [(name, shown) for name, _, shown in arms],
        )
