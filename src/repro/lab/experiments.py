"""The paper's experiments, §4-§6 and §9.2-§9.3.

Each experiment class mirrors one experimental design from the paper:

================================  =====================================
Paper section                     Class here
================================  =====================================
§4  end-to-end instability        :class:`EndToEndExperiment`
§5.1 JPEG quality (Table 2)       :class:`CompressionQualityExperiment`
§5.2 formats (Table 3)            :class:`CompressionFormatExperiment`
§6  ISPs (Table 4)                :class:`ISPComparisonExperiment`
§9.2 raw vs JPEG (Fig. 8)         :class:`RawVsJpegExperiment`
§9.3 top-3 (Fig. 9)               :func:`repro.mitigation.simplify_task`
Fig. 1 repeat shots               :func:`repeat_shot_demo`
================================  =====================================

All experiments share one fixed-weight model (the paper's pretrained
MobileNetV2 analogue) through :func:`repro.lab.common.resolve_model`, and
are deterministic given their seed.

Every experiment class runs its capture work through the
:mod:`repro.runner` fleet executor: pass ``workers=N`` to fan the
(scene, angle, device) units across a process pool and/or ``cache=`` a
:class:`~repro.runner.cache.CaptureCache` to skip redundant
render/capture work across repeated runs and ablation sweeps. Per-unit
seed derivation (:func:`repro.runner.seeds.unit_entropy`) makes the
output bit-identical for every worker count — the invariant
``tests/runner/test_determinism.py`` enforces.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instability import (
    instability,
    per_class_instability,
    per_environment_accuracy,
)
from ..core.records import ExperimentResult
from ..devices.profiles import DeviceProfile, capture_fleet
from ..devices.runtime import DeviceRuntime
from ..imaging.image import ImageBuffer, RawImage
from ..imaging.metrics import PixelDiffStats, pixel_diff_map
from ..nn.model import Model
from ..runner.cache import CaptureCache
from ..runner.executor import FleetExecutor
from ..runner.units import CaptureUnit, payload_to_raw, raw_to_payload
from ..scenes.dataset import build_dataset
from .common import (
    Study,
    capture_units,
    classify,
    present,
    present_items,
    resolve_model,
    scaled_mb,
)
from .rig import DEFAULT_ANGLES, DisplayedImage

__all__ = [
    "EndToEndExperiment",
    "CompressionQualityExperiment",
    "CompressionFormatExperiment",
    "ISPComparisonExperiment",
    "RawVsJpegExperiment",
    "CompressionResult",
    "RawCaptureBank",
    "repeat_shot_demo",
    "RepeatShotOutcome",
]


# ======================================================================
# §4 — end-to-end
# ======================================================================
class EndToEndExperiment(Study):
    """Photograph every dataset scene on every phone at every angle.

    The result feeds Fig. 3 (accuracy/instability by phone, class,
    angle), Fig. 4 (confidence), and the §9.3 top-k re-scoring.

    The fleet defaults to the paper's five phones; pass ``phones=`` for
    an explicit profile list, e.g. ``phones=generate_fleet(50, seed=0)``
    (:func:`repro.fleet.population.generate_fleet`) for the
    population-scale variant of the §4 study.
    """

    def __init__(
        self,
        phones: Optional[Sequence[DeviceProfile]] = None,
        model: Optional[Model] = None,
        angles: Sequence[float] = DEFAULT_ANGLES,
        repeats: int = 1,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        super().__init__(model, seed, workers, cache)
        self.profiles = list(phones) if phones is not None else capture_fleet()
        self.angles = tuple(angles)
        self.repeats = repeats

    def run(self, per_class: int = 8) -> ExperimentResult:
        displayed = present(per_class, self.seed, self.angles, self.cache)
        units = capture_units(
            [(profile.name, profile, displayed) for profile in self.profiles],
            self.seed,
            repeats=range(self.repeats),
        )
        frames = [shown for shown in displayed for _ in range(self.repeats)]
        return classify(
            self.runtime,
            "end_to_end",
            self.executor.run(units),
            [(profile.name, frames) for profile in self.profiles],
            repeat=list(range(self.repeats)) * len(displayed),
        )


# ======================================================================
# Raw capture bank shared by §5 / §6 / §9.2
# ======================================================================
@dataclass
class RawCaptureBank:
    """Raw captures from the raw-capable phones (Galaxy S10, iPhone XR).

    The paper's §5 and §6 experiments start from "the raw photos taken in
    the end-to-end experiment on the iPhone and Samsung phone"; this bank
    is that corpus. Each entry keeps the capture's provenance so records
    can compare the same displayed image across downstream treatments.
    """

    raws: List[RawImage]
    displayed: List[DisplayedImage]
    phone_names: List[str]

    @classmethod
    def collect(
        cls,
        per_class: int = 8,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> "RawCaptureBank":
        profiles = [p for p in capture_fleet() if p.supports_raw]
        displayed = present(per_class, seed, cache=cache)
        units = capture_units(
            [(profile.name, profile, displayed) for profile in profiles],
            seed,
            kind="raw",
        )
        payloads = FleetExecutor(workers=workers, cache=cache).run(units)
        return cls(
            raws=[payload_to_raw(payload) for payload in payloads],
            displayed=displayed * len(profiles),
            phone_names=[profile.name for profile in profiles for _ in displayed],
        )

    def __len__(self) -> int:
        return len(self.raws)


@dataclass
class CompressionResult:
    """Records plus the side-band size/accuracy stats of Tables 2 and 3."""

    result: ExperimentResult
    avg_size_bytes: Dict[str, float]
    #: Sizes extrapolated to 12 MP-equivalent MB (comparable to the paper).
    avg_size_mb_scaled: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.avg_size_mb_scaled:
            self.avg_size_mb_scaled = {
                env: scaled_mb(size) for env, size in self.avg_size_bytes.items()
            }

    def accuracy_by_environment(self) -> Dict[str, float]:
        return per_environment_accuracy(self.result)

    def instability(self) -> float:
        return instability(self.result)


class _DevelopSweep(Study):
    """Develop every raw of a bank under each environment's options.

    The base of the §5 and §6 experiments: the raws stay fixed and only
    the ``develop`` options (ISP, codec, quality) vary per environment.
    Development is noise-free, so a sweep takes no seed.
    """

    def __init__(
        self,
        model: Optional[Model] = None,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        super().__init__(model, workers=workers, cache=cache)

    def _sweep(
        self, bank: RawCaptureBank, name: str, table: Dict[str, Dict[str, object]]
    ) -> Tuple[ExperimentResult, Dict[str, float]]:
        """Records and mean encoded size per environment of ``table``."""
        raw_payloads = [raw_to_payload(raw) for raw in bank.raws]
        units = [
            CaptureUnit(kind="develop", raw=payload, options=options)
            for options in table.values()
            for payload in raw_payloads
        ]
        outputs = self.executor.run(units)
        n = len(raw_payloads)
        avg_sizes = {
            env: float(
                np.mean([int(p["encoded_size"]) for p in outputs[e * n : (e + 1) * n]])
            )
            for e, env in enumerate(table)
        }
        result = classify(
            self.runtime,
            name,
            outputs,
            [(env, bank.displayed) for env in table],
            image_id=range(n),
        )
        return result, avg_sizes


class CompressionQualityExperiment(_DevelopSweep):
    """§5.1 / Table 2: the same raw photo at JPEG quality 100, 85, 50.

    A consistent software ISP (ImageMagick) develops every raw capture so
    the *only* varying factor is the compression quality — the paper's
    isolation strategy.
    """

    QUALITIES = (100, 85, 50)

    def run(self, bank: RawCaptureBank) -> CompressionResult:
        result, avg_sizes = self._sweep(
            bank,
            "jpeg_quality",
            {
                f"jpeg-q{quality}": {
                    "isp": "imagemagick",
                    "codec": "jpeg",
                    "quality": quality,
                }
                for quality in self.QUALITIES
            },
        )
        return CompressionResult(result=result, avg_size_bytes=avg_sizes)


class CompressionFormatExperiment(_DevelopSweep):
    """§5.2 / Table 3: the same raw photo as JPEG, PNG, WebP, and HEIF.

    Each format uses its default parameters, as in the paper, after the
    same ImageMagick development.
    """

    FORMATS = ("jpeg", "png", "webp", "heif")

    def run(self, bank: RawCaptureBank) -> CompressionResult:
        result, avg_sizes = self._sweep(
            bank,
            "formats",
            {fmt: {"isp": "imagemagick", "codec": fmt} for fmt in self.FORMATS},
        )
        return CompressionResult(result=result, avg_size_bytes=avg_sizes)


# ======================================================================
# §6 — ISP comparison
# ======================================================================
@dataclass
class ISPComparisonOutcome:
    result: ExperimentResult

    def accuracy_by_isp(self) -> Dict[str, float]:
        return per_environment_accuracy(self.result)

    def instability(self) -> float:
        return instability(self.result)


class ISPComparisonExperiment(_DevelopSweep):
    """§6 / Table 4: develop the same raws with two software ISPs.

    The paper uses ImageMagick and Adobe Photoshop as black-box software
    ISPs (following Buckler et al. 2017) and evaluates the uncompressed
    (PNG) conversions, so no codec noise enters.
    """

    def __init__(
        self,
        model: Optional[Model] = None,
        isps: Sequence[str] = ("imagemagick", "adobe"),
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        if len(isps) < 2:
            raise ValueError("need at least two ISPs to compare")
        super().__init__(model=model, workers=workers, cache=cache)
        self.isp_names = tuple(isps)

    def run(self, bank: RawCaptureBank) -> ISPComparisonOutcome:
        result, _ = self._sweep(
            bank, "isp_comparison", {name: {"isp": name} for name in self.isp_names}
        )
        return ISPComparisonOutcome(result=result)


# ======================================================================
# §9.2 — raw vs JPEG
# ======================================================================
@dataclass
class RawVsJpegOutcome:
    """Instability/accuracy of the JPEG path vs. the consistent raw path."""

    jpeg_result: ExperimentResult
    raw_result: ExperimentResult

    def instability_jpeg(self) -> float:
        return instability(self.jpeg_result)

    def instability_raw(self) -> float:
        return instability(self.raw_result)

    def per_class(self) -> Dict[str, Tuple[float, float]]:
        """class -> (jpeg instability, raw instability), Fig. 8b."""
        jpeg = per_class_instability(self.jpeg_result)
        raw = per_class_instability(self.raw_result)
        return {cls: (jpeg[cls], raw.get(cls, 0.0)) for cls in jpeg}

    def accuracy_table(self) -> Dict[str, float]:
        """Fig. 8c: accuracy per phone per path."""
        return {
            f"{env}/{arm}": value
            for arm, result in (("jpeg", self.jpeg_result), ("raw", self.raw_result))
            for env, value in per_environment_accuracy(result).items()
        }

    def relative_improvement(self) -> float:
        """Fractional instability reduction from going raw (~11.5% in paper)."""
        jpeg = self.instability_jpeg()
        if jpeg == 0:
            return 0.0
        return (jpeg - self.instability_raw()) / jpeg


class RawVsJpegExperiment(Study):
    """§9.2 / Fig. 8: each phone shoots both JPEG and raw DNG.

    The raw arm converts every DNG with the *same* software ISP on both
    phones, eliminating ISP and codec differences; the JPEG arm is each
    phone's own pipeline (forced to JPEG so both arms share a format
    count). Only the two raw-capable phones participate, as in the paper.
    """

    def __init__(
        self,
        model: Optional[Model] = None,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
        phones: Optional[Sequence[DeviceProfile]] = None,
    ) -> None:
        self.profiles = [
            p
            for p in (phones if phones is not None else capture_fleet())
            if p.supports_raw
        ]
        if not self.profiles:
            raise ValueError("no raw-capable phones supplied")
        super().__init__(model, seed, workers, cache)
        self.conversion_isp_name = "imagemagick"

    def run(
        self, per_class: int = 8, angles: Sequence[float] = (0.0,)
    ) -> RawVsJpegOutcome:
        displayed = present(per_class, self.seed, angles, self.cache)
        # One unit per exposure; each unit develops both arms from the
        # *same* raw frame, the §9.2 controlled comparison.
        units = [
            unit
            for profile in self.profiles
            for unit in capture_units(
                [(profile.name, profile, displayed)],
                self.seed,
                kind="raw_vs_jpeg",
                options={
                    "conversion_isp": self.conversion_isp_name,
                    "quality": profile.save_quality,
                },
            )
        ]
        payloads = self.executor.run(units)
        chunks = [(profile.name, displayed) for profile in self.profiles]
        return RawVsJpegOutcome(
            jpeg_result=classify(
                self.runtime, "raw_vs_jpeg/jpeg", payloads, chunks, key="jpeg_pixels"
            ),
            raw_result=classify(
                self.runtime, "raw_vs_jpeg/raw", payloads, chunks, key="raw_pixels"
            ),
        )


# ======================================================================
# Fig. 1 — repeat shots on one phone
# ======================================================================
@dataclass(frozen=True)
class RepeatShotOutcome:
    """Two back-to-back captures of the same displayed image."""

    first_label: int
    second_label: int
    first_confidence: float
    second_confidence: float
    true_label: int
    diff: PixelDiffStats

    @property
    def diverged(self) -> bool:
        return self.first_label != self.second_label


def repeat_shot_demo(
    model: Optional[Model] = None,
    seed: int = 0,
    max_scenes: int = 64,
    pairs_per_scene: int = 3,
) -> RepeatShotOutcome:
    """Reproduce Fig. 1: find a scene where two shots seconds apart diverge.

    Takes ``pairs_per_scene`` repeat-capture pairs per scene (identical
    display, fresh sensor noise) until a pair yields different top-1
    labels; returns the last pair examined if none diverges (the stats
    still show the sub-5% pixel difference the paper highlights). Each
    scene's shots are one executor run of photograph units seeded by
    ``unit_entropy(seed, device, image_id, shot)``; shots ``2p`` and
    ``2p + 1`` form pair ``p``.
    """
    profile = capture_fleet()[0]  # Galaxy S10, as in the paper
    runtime = DeviceRuntime(resolve_model(model))
    executor = FleetExecutor()

    dataset = build_dataset(per_class=max(1, max_scenes // 5), seed=seed)
    outcome = None
    for index, item in enumerate(list(dataset)[:max_scenes]):
        # Render scene by scene: the demo stops at the first divergent
        # pair. With one angle a scene's image_id is its dataset index.
        shown = replace(present_items([item], seed)[0], image_id=index)
        units = capture_units(
            [(profile.name, profile, [shown])], seed, repeats=range(2 * pairs_per_scene)
        )
        pixels = [payload["pixels"] for payload in executor.run(units)]
        predictions = runtime.predict([ImageBuffer(p) for p in pixels])
        for first in range(0, len(units), 2):
            pred_a, pred_b = predictions[first : first + 2]
            outcome = RepeatShotOutcome(
                first_label=pred_a.top1,
                second_label=pred_b.top1,
                first_confidence=pred_a.confidence,
                second_confidence=pred_b.confidence,
                true_label=shown.item.label,
                diff=pixel_diff_map(pixels[first], pixels[first + 1], threshold=0.05),
            )
            if outcome.diverged:
                return outcome
    assert outcome is not None
    return outcome
