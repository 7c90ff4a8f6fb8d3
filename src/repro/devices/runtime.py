"""On-device inference runtime.

Wraps a model the way a mobile inference engine does: decoded image in,
top-k predictions out. The paper's §7 (and our reproduction) finds the
decoded *pixels*, not the arithmetic, are what differ across devices:
with identical inputs, every runtime here is bit-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from .. import obs
from ..imaging.image import ImageBuffer
from ..nn.model import Model
from ..nn.preprocess import to_model_input

__all__ = ["Prediction", "DeviceRuntime"]


@dataclass(frozen=True)
class Prediction:
    """One inference result."""

    #: Class indices sorted by descending probability.
    ranking: tuple
    #: Probability for each class (unsorted, index = class id).
    probabilities: tuple

    @property
    def top1(self) -> int:
        return self.ranking[0]

    @property
    def confidence(self) -> float:
        return self.probabilities[self.ranking[0]]

    def topk(self, k: int) -> tuple:
        return self.ranking[:k]

    @classmethod
    def from_probabilities(cls, row: np.ndarray) -> "Prediction":
        """The prediction for one row of class probabilities.

        Ties rank the lower class first: a stable sort, whose order does
        not depend on which SIMD loop NumPy dispatches on the host.
        """
        return cls(
            ranking=tuple(int(i) for i in np.argsort(-row, kind="stable")),
            probabilities=tuple(float(p) for p in row),
        )


class DeviceRuntime:
    """A deterministic inference engine bound to one model.

    ``batch_size`` bounds how many frames enter one ``predict_proba``
    call: large experiment sweeps hand the runtime hundreds of decoded
    frames at once, and chunking keeps the activation working set
    cache-resident instead of materializing one enormous tensor. The
    chunk boundaries depend only on each frame's position in the input
    sequence, so batching never perturbs results between serial and
    parallel experiment runs (which assemble identical frame orders).
    """

    def __init__(self, model: Model, batch_size: Optional[int] = None) -> None:
        if batch_size is not None and batch_size < 1:
            raise ValueError("batch_size must be positive")
        self.model = model
        self.batch_size = batch_size

    def predict(self, images: Sequence[ImageBuffer] | ImageBuffer) -> List[Prediction]:
        """Run inference on decoded image(s), in deterministic batches.

        Each batch is preprocessed on its own, so the stacked frames
        never exceed one batch.
        """
        if isinstance(images, ImageBuffer):
            images = [images]
        step = self.batch_size or len(images) or 1
        with obs.span("inference.predict", frames=len(images)):
            proba = np.concatenate(
                [
                    self.model.predict_proba(to_model_input(images[i : i + step]))
                    for i in range(0, len(images), step)
                ],
                axis=0,
            )
        obs.count("inference.frames", len(images))
        return [Prediction.from_probabilities(row) for row in proba]

    def predict_one(self, image: ImageBuffer) -> Prediction:
        return self.predict([image])[0]
