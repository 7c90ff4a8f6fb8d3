"""Experiment harness: the controlled rig and the paper's experiments."""

from .common import SIZE_SCALE_TO_12MP, scaled_mb
from .experiments import (
    CompressionFormatExperiment,
    CompressionQualityExperiment,
    CompressionResult,
    EndToEndExperiment,
    ISPComparisonExperiment,
    RawCaptureBank,
    RawVsJpegExperiment,
    RepeatShotOutcome,
    repeat_shot_demo,
)
from .extensions import LensVariationExperiment, LightingVariationExperiment
from .firebase import FirebaseOutcome, FirebaseTestLab
from .rig import DEFAULT_ANGLES, CaptureRig, DisplayedImage

__all__ = [
    "CaptureRig",
    "CompressionFormatExperiment",
    "CompressionQualityExperiment",
    "CompressionResult",
    "DEFAULT_ANGLES",
    "DisplayedImage",
    "EndToEndExperiment",
    "FirebaseOutcome",
    "FirebaseTestLab",
    "ISPComparisonExperiment",
    "LensVariationExperiment",
    "LightingVariationExperiment",
    "RawCaptureBank",
    "RawVsJpegExperiment",
    "RepeatShotOutcome",
    "SIZE_SCALE_TO_12MP",
    "repeat_shot_demo",
    "scaled_mb",
]
