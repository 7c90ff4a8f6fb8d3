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
from typing import List, Optional, Sequence

import numpy as np

from ..core.records import ExperimentResult
from ..devices.profiles import DeviceProfile, capture_fleet
from ..devices.runtime import DeviceRuntime
from ..nn.model import Model
from ..runner.cache import CaptureCache
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit
from ..scenes.dataset import build_dataset
from ..scenes.screen import Screen
from .common import classify, resolve_model
from .rig import CaptureRig

__all__ = ["LightingVariationExperiment", "LensVariationExperiment"]


class LightingVariationExperiment:
    """Instability across lighting conditions, one phone (§11 future work).

    The phone is the paper's Galaxy S10 (``capture_fleet()[0]``).
    """

    #: (label, brightness multiplier, warmth) staging conditions.
    CONDITIONS = (
        ("dim_warm", 0.75, 0.06),
        ("nominal", 1.0, 0.0),
        ("bright_cool", 1.15, -0.06),
    )

    def __init__(
        self,
        model: Optional[Model] = None,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        self.profile = capture_fleet()[0]
        self.runtime = DeviceRuntime(resolve_model(model))
        self.seed = seed
        self.cache = cache
        self.executor = FleetExecutor(workers=workers, cache=cache)

    def run(self, per_class: int = 8) -> ExperimentResult:
        dataset = build_dataset(per_class=per_class, seed=self.seed)
        screen = Screen(seed=self.seed)
        units: List[CaptureUnit] = []
        chunks = []
        for label, brightness, warmth in self.CONDITIONS:
            relit = [
                replace(item, scene=replace(item.scene, brightness=brightness, warmth=warmth))
                for item in dataset
            ]
            rig = CaptureRig(screen=screen, angles=(0.0,), cache=self.cache)
            displayed = rig.present(relit)
            chunks.append((label, displayed))
            units.extend(
                CaptureUnit(
                    kind="photograph",
                    profile=self.profile,
                    radiance=shown.radiance.pixels,
                    entropy=unit_entropy(self.seed, label, shown.image_id),
                )
                for shown in displayed
            )
        return classify(
            self.runtime,
            "lighting_variation",
            self.executor.run(units),
            chunks,
            image_id=range(len(dataset)),
        )


class LensVariationExperiment:
    """Instability across manufacturing units of one phone model.

    Models the paper's observation (§6, citing Rameshwar 2019) that units
    of the *same phone model* (the Galaxy S10) can differ in their
    imaging components: each simulated unit perturbs the nominal lens
    (blur, vignetting) within plausible assembly tolerances.
    """

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
        self.profile = capture_fleet()[0]
        self.runtime = DeviceRuntime(resolve_model(model))
        self.units = units
        self.seed = seed
        self.cache = cache
        self.executor = FleetExecutor(workers=workers, cache=cache)

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
        dataset = build_dataset(per_class=per_class, seed=self.seed)
        rig = CaptureRig(
            screen=Screen(seed=self.seed), angles=(0.0,), cache=self.cache
        )
        displayed = rig.present(list(dataset))
        profiles = list(self._unit_profiles())
        work = [
            CaptureUnit(
                kind="photograph",
                profile=profile,
                radiance=shown.radiance.pixels,
                entropy=unit_entropy(self.seed, profile.name, shown.image_id),
            )
            for profile in profiles
            for shown in displayed
        ]
        return classify(
            self.runtime,
            "lens_variation",
            self.executor.run(work),
            [(profile.name, displayed) for profile in profiles],
        )
