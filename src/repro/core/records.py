"""Prediction records: the data model every experiment produces.

A :class:`PredictionRecord` is one inference outcome of one *displayed
image* (an object staged on the rig's screen, at one angle) in one
*environment* (a phone model, a compression setting, an ISP, an OS — the
paper's §2.2 notion of environment). Experiments return an
:class:`ExperimentResult`, an ordered collection of records, which the
metric layer (:mod:`repro.core.instability`) consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = ["PredictionRecord", "ExperimentResult"]


@dataclass(frozen=True)
class PredictionRecord:
    """One model prediction in one environment.

    Attributes
    ----------
    environment:
        The environment label — phone name, codec setting, ISP name...
    image_id:
        Identifies the underlying displayed image; records sharing an
        ``image_id`` are predictions on *nearly identical input* and are
        what the instability metric compares across environments.
    true_label / predicted_label:
        Integer class ids; ``class_name`` carries the readable label.
    confidence:
        The model's probability for its top prediction.
    ranking:
        All class ids sorted by descending probability (for top-k).
    angle:
        The rig angle in degrees, when applicable.
    """

    environment: str
    image_id: int
    true_label: int
    predicted_label: int
    confidence: float
    class_name: str
    ranking: Tuple[int, ...] = ()
    angle: Optional[float] = None
    metadata: Dict[str, object] = field(default_factory=dict)
    #: Labels accepted as correct besides ``true_label``. The paper's §3.2
    #: uses this for overlapping ImageNet classes ("wine bottle" and
    #: "red wine" both count for a bottle of red).
    acceptable_labels: Tuple[int, ...] = ()

    def is_correct(self, k: int = 1) -> bool:
        """Is the true label (or an acceptable alias) within the top-k?"""
        if k <= 0:
            raise ValueError("k must be positive")
        accepted = {self.true_label, *self.acceptable_labels}
        if k == 1:
            return self.predicted_label in accepted
        if not self.ranking:
            raise ValueError("record has no ranking; cannot evaluate top-k")
        return bool(accepted & set(self.ranking[:k]))


class ExperimentResult:
    """An ordered collection of prediction records."""

    def __init__(self, records: Sequence[PredictionRecord], name: str = "") -> None:
        self.records: List[PredictionRecord] = list(records)
        self.name = name

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def extend(self, records: Iterable[PredictionRecord]) -> None:
        self.records.extend(records)
