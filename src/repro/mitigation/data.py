"""Fine-tuning corpora for stability training.

The paper fine-tunes on photos taken by the Samsung phone in the
end-to-end rig, pairs them (when the noise scheme wants real pairs) with
the iPhone photos of the *same displayed images*, and evaluates the
resulting model's instability between fresh Samsung and iPhone photos.
:func:`build_stability_corpus` captures that whole data layout: aligned
tensors for the two phones, object-level train/test splits (so the model
is never evaluated on objects it fine-tuned on), and the provenance
needed to build prediction records at evaluation time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from ..devices.profiles import capture_fleet
from ..imaging.image import ImageBuffer
from ..nn.preprocess import to_model_input
from ..runner.executor import FleetExecutor
from ..lab.common import capture_units, present
from ..lab.rig import DisplayedImage

__all__ = ["StabilityCorpus", "build_stability_corpus"]


@dataclass
class StabilityCorpus:
    """Aligned two-phone capture tensors with an object-level split.

    ``x_*`` tensors are model inputs ``(N, 3, 32, 32)``; row ``i`` of the
    primary and secondary tensors shows the *same displayed image*
    photographed by the two phones.
    """

    x_train_primary: np.ndarray
    x_train_secondary: np.ndarray
    y_train: np.ndarray
    x_test_primary: np.ndarray
    x_test_secondary: np.ndarray
    y_test: np.ndarray
    test_displayed: List[DisplayedImage]
    primary_name: str
    secondary_name: str

    def __post_init__(self) -> None:
        n_train = len(self.y_train)
        n_test = len(self.y_test)
        if not (
            len(self.x_train_primary) == len(self.x_train_secondary) == n_train
        ):
            raise ValueError("train tensors misaligned")
        if not (
            len(self.x_test_primary)
            == len(self.x_test_secondary)
            == n_test
            == len(self.test_displayed)
        ):
            raise ValueError("test tensors misaligned")


def build_stability_corpus(
    per_class: int = 10,
    train_fraction: float = 0.6,
    angles: Sequence[float] = (-30.0, 0.0, 30.0),
    seed: int = 0,
) -> StabilityCorpus:
    """Capture the Samsung/iPhone fine-tuning corpus.

    Splitting is by object so test scenes show objects unseen during
    fine-tuning, and both phones photograph every displayed image so the
    pairs stay aligned. Every capture is one photograph unit through the
    fleet executor, seeded by ``unit_entropy(seed, device, image_id)``.
    """
    fleet = capture_fleet()
    primary = next(p for p in fleet if p.name == "samsung_galaxy_s10")
    secondary = next(p for p in fleet if p.name == "iphone_xr")

    displayed = present(per_class, seed, angles)
    # Photograph everything on both phones, primary first.
    units = capture_units(
        [(profile.name, profile, displayed) for profile in (primary, secondary)], seed
    )
    x = to_model_input([ImageBuffer(p["pixels"]) for p in FleetExecutor().run(units)])
    x_primary, x_secondary = x[: len(displayed)], x[len(displayed) :]

    labels = np.array([shown.item.label for shown in displayed], dtype=np.int64)

    # Object-level split.
    object_ids = sorted({shown.item.object_id for shown in displayed})
    rng = np.random.default_rng(seed + 1)
    perm = rng.permutation(len(object_ids))
    cut = max(1, int(round(len(object_ids) * train_fraction)))
    train_objects = {object_ids[i] for i in perm[:cut]}
    train_mask = np.array(
        [shown.item.object_id in train_objects for shown in displayed]
    )

    test_displayed = [s for s, m in zip(displayed, train_mask) if not m]
    return StabilityCorpus(
        x_train_primary=x_primary[train_mask],
        x_train_secondary=x_secondary[train_mask],
        y_train=labels[train_mask],
        x_test_primary=x_primary[~train_mask],
        x_test_secondary=x_secondary[~train_mask],
        y_test=labels[~train_mask],
        test_displayed=test_displayed,
        primary_name=primary.name,
        secondary_name=secondary.name,
    )
