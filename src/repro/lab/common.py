"""Shared plumbing for the lab experiments."""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.records import ExperimentResult, PredictionRecord
from ..devices.runtime import DeviceRuntime, Prediction
from ..imaging.image import ImageBuffer
from ..nn.model import Model
from ..nn.pretrained import load_pretrained
from ..scenes.objects import ALL_CLASSES
from .rig import DisplayedImage

__all__ = [
    "classify",
    "make_record",
    "resolve_model",
    "SIZE_SCALE_TO_12MP",
    "scaled_mb",
]

#: Our working resolution is 96x96; the paper's phones shoot ~12 MP.
#: File sizes reported next to the paper's tables are scaled by the pixel
#: count ratio so the magnitudes are comparable (documented in DESIGN.md).
SIZE_SCALE_TO_12MP = 12_000_000 / (96 * 96)


def scaled_mb(size_bytes: float) -> float:
    """Extrapolate a 96x96 file size to a 12 MP-equivalent megabyte count."""
    return size_bytes * SIZE_SCALE_TO_12MP / 1_000_000


def resolve_model(model: Optional[Model]) -> Model:
    """Use the supplied model or fall back to the shared pretrained base."""
    return model if model is not None else load_pretrained()


def make_record(
    prediction: Prediction,
    displayed: DisplayedImage,
    environment: str,
    image_id: Optional[int] = None,
    repeat: int = 0,
) -> PredictionRecord:
    """Build a :class:`PredictionRecord` from a runtime prediction."""
    item = displayed.item
    return PredictionRecord(
        environment=environment,
        image_id=displayed.image_id if image_id is None else image_id,
        true_label=item.label,
        predicted_label=prediction.top1,
        confidence=prediction.confidence,
        class_name=item.class_name,
        ranking=prediction.ranking,
        angle=displayed.angle,
        metadata={
            "object_key": item.object_id,
            "repeat": repeat,
            "probabilities": prediction.probabilities,
            "predicted_class": ALL_CLASSES[prediction.top1],
        },
    )


def classify(
    runtime: DeviceRuntime,
    name: str,
    payloads: Sequence[Mapping[str, np.ndarray]],
    chunks: Sequence[Tuple[str, Sequence[DisplayedImage]]],
    key: str = "pixels",
    **per_item: Sequence,
) -> ExperimentResult:
    """Classify capture payloads laid out as one chunk per environment.

    ``chunks`` lists ``(environment, displayed)`` in payload order: the
    next ``len(displayed)`` payloads are that environment's frames of
    ``displayed``, item by item. Each chunk is one ``runtime.predict``
    call over ``payload[key]`` and one :func:`make_record` per item;
    ``per_item`` holds further :func:`make_record` keywords (``image_id``,
    ``repeat``), each a sequence aligned with ``displayed``.
    """
    result = ExperimentResult([], name=name)
    start = 0
    for environment, displayed in chunks:
        chunk = payloads[start : start + len(displayed)]
        start += len(displayed)
        predictions = runtime.predict([ImageBuffer(p[key]) for p in chunk])
        result.extend(
            make_record(
                pred,
                shown,
                environment=environment,
                **{k: values[i] for k, values in per_item.items()},
            )
            for i, (pred, shown) in enumerate(zip(predictions, displayed))
        )
    return result
