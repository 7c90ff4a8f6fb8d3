"""Shared plumbing for the rig studies.

The paper's experimental control (§3.2, Fig. 2a) is written once here:
:func:`present` shows every environment (a phone, a lighting condition,
a lens unit) the same images, :func:`capture_units` seeds one unit per
(environment, image[, repeat]), and :class:`Study` holds the runtime,
executor, seed and cache a study runs with.
"""

from __future__ import annotations

from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.records import ExperimentResult, PredictionRecord
from ..devices.profiles import DeviceProfile
from ..devices.runtime import DeviceRuntime, Prediction
from ..imaging.image import ImageBuffer
from ..nn.model import Model
from ..nn.pretrained import load_pretrained
from ..runner.cache import CaptureCache
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit
from ..scenes.dataset import LabeledScene, build_dataset
from ..scenes.objects import ALL_CLASSES
from ..scenes.screen import Screen
from .rig import CaptureRig, DisplayedImage

__all__ = [
    "INFERENCE_BATCH",
    "Study",
    "capture_units",
    "classify",
    "make_record",
    "present",
    "present_items",
    "resolve_model",
    "SIZE_SCALE_TO_12MP",
    "scaled_mb",
]

#: Frames per ``predict_proba`` call in the batched studies.
INFERENCE_BATCH = 64

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


def present_items(
    items: Iterable[LabeledScene],
    seed: int,
    angles: Sequence[float] = (0.0,),
    cache: Optional[CaptureCache] = None,
) -> List[DisplayedImage]:
    """Show ``items`` on a fresh rig with a ``seed`` screen.

    Presentations are numbered ``0..n-1`` in item → angle order.
    """
    rig = CaptureRig(screen=Screen(seed=seed), angles=angles, cache=cache)
    return rig.present(list(items))


def present(
    per_class: int,
    seed: int,
    angles: Sequence[float] = (0.0,),
    cache: Optional[CaptureCache] = None,
) -> List[DisplayedImage]:
    """The seeded dataset's presentations on the rig."""
    dataset = build_dataset(per_class=per_class, seed=seed)
    return present_items(dataset, seed, angles, cache)


def capture_units(
    arms: Sequence[Tuple[str, DeviceProfile, Sequence[DisplayedImage]]],
    seed: int,
    kind: str = "photograph",
    options: Optional[Mapping[str, object]] = None,
    repeats: Optional[Sequence[int]] = None,
) -> List[CaptureUnit]:
    """One capture unit per (arm, image[, repeat]), in that order.

    An arm is ``(environment, profile, displayed)``: ``profile``
    photographs every image of ``displayed``, and each unit is seeded by
    ``unit_entropy(seed, environment, image_id)`` with the repeat index
    appended when ``repeats`` is given (``None``: no repeat axis).
    """
    shots = [()] if repeats is None else [(repeat,) for repeat in repeats]
    return [
        CaptureUnit(
            kind=kind,
            profile=profile,
            radiance=shown.radiance.pixels,
            entropy=unit_entropy(seed, environment, shown.image_id, *shot),
            options=dict(options or {}),
        )
        for environment, profile, displayed in arms
        for shown in displayed
        for shot in shots
    ]


class Study:
    """The runtime, executor, seed and cache of one rig study.

    ``batch_size`` is a class attribute because inference chunking is
    part of a study's output bits: at 65 frames per environment, lens
    variation at batch 64 instead of one call changed 4 of 260 records.
    """

    batch_size: Optional[int] = INFERENCE_BATCH

    def __init__(
        self,
        model: Optional[Model] = None,
        seed: int = 0,
        workers: int = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        self.runtime = DeviceRuntime(resolve_model(model), batch_size=self.batch_size)
        self.executor = FleetExecutor(workers=workers, cache=cache)
        self.seed = seed
        self.cache = cache


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
