"""Secondary analyses over experiment results.

These back the paper's figure panels that slice instability by angle
(Fig. 3c), by repeat shots within a phone (Fig. 3d), and by model
confidence (Fig. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from .instability import image_flags, instability_by, key_codes
from .records import ExperimentResult

__all__ = [
    "per_angle_instability",
    "within_environment_instability",
    "ConfidenceSplit",
    "confidence_analysis",
]


def per_angle_instability(result: ExperimentResult, k: int = 1) -> Dict[float, float]:
    """Cross-environment instability computed separately per rig angle.

    Records must carry ``angle``; images are compared across environments
    *within* the same angle (Fig. 3c), so each image is keyed by
    (angle, image). Records without an angle are left out.
    """
    flags = image_flags(result, k)
    angle = np.array([np.nan if r.angle is None else r.angle for r in result])
    has = ~np.isnan(angle)
    if not has.any():
        raise ValueError("records carry no angle information")
    angles, group = np.unique(angle[has], return_inverse=True)
    return instability_by(
        group, angles.tolist(), flags.image[has], flags.environment[has],
        flags.correct[has],
    )


def within_environment_instability(
    result: ExperimentResult, k: int = 1
) -> Dict[str, float]:
    """Instability across repeat observations *within* each environment.

    For one phone, the same object photographed at different angles (or
    repeat shots) counts as the set of nearly-identical inputs; divergence
    among them is the phone's self-instability (Fig. 3d). Within each
    environment, the ``object_key`` metadata (default: the image id) is
    the image and each (angle, repeat) pair is an environment of the
    cross-environment metric.
    """
    flags = image_flags(result, k)
    image, _ = key_codes(r.metadata.get("object_key", r.image_id) for r in result)
    shot, _ = key_codes((r.angle, r.metadata.get("repeat", 0)) for r in result)
    return instability_by(
        flags.environment, flags.environments, image, shot, flags.correct
    )


@dataclass(frozen=True)
class ConfidenceSplit:
    """Confidence distributions split by stability and correctness (Fig. 4)."""

    stable_correct: np.ndarray
    stable_incorrect: np.ndarray
    unstable_correct: np.ndarray
    unstable_incorrect: np.ndarray

    def summary(self) -> Dict[str, Tuple[float, float]]:
        """(mean, std) per group, empty groups reported as (nan, nan)."""
        def stats(arr: np.ndarray) -> Tuple[float, float]:
            if arr.size == 0:
                return (float("nan"), float("nan"))
            return (float(arr.mean()), float(arr.std()))

        return {
            "stable_correct": stats(self.stable_correct),
            "stable_incorrect": stats(self.stable_incorrect),
            "unstable_correct": stats(self.unstable_correct),
            "unstable_incorrect": stats(self.unstable_incorrect),
        }


def confidence_analysis(result: ExperimentResult, k: int = 1) -> ConfidenceSplit:
    """Split prediction confidences by image stability and correctness.

    For stable images all records share correctness, so the stable groups
    collect all their confidences. For unstable images the records are
    divided into the correct and the incorrect side — the paper's Fig. 4b
    compares exactly those two distributions. Each group keeps record
    order.
    """
    flags = image_flags(result, k)
    confidence = np.array([r.confidence for r in result])
    eligible = flags.eligible[flags.image]
    any_correct = flags.any_correct[flags.image]
    any_incorrect = flags.any_incorrect[flags.image]
    unstable = eligible & any_correct & any_incorrect
    return ConfidenceSplit(
        stable_correct=confidence[eligible & any_correct & ~any_incorrect],
        stable_incorrect=confidence[eligible & ~any_correct],
        unstable_correct=confidence[unstable & flags.correct],
        unstable_incorrect=confidence[unstable & ~flags.correct],
    )
