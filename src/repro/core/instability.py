"""The instability metric (the paper's §2.2 definition) and companions.

A displayed image is *unstable* when, across the environments that saw
it, at least one environment classified it correctly and at least one
classified it clearly incorrectly. Images on which *every* environment
is wrong are not counted as unstable — the paper argues one wrong answer
cannot be called "more incorrect" than another — and images seen by only
one environment are excluded from the denominator entirely.

``instability(result)`` therefore returns::

    # unstable images / # images observed in >= 2 environments

with top-k generalization via ``k`` (used by the §9.3 task-simplification
mitigation).

Every metric here and in :mod:`repro.core.analysis` derives from
:func:`image_flags`; rates are integer counts over integer counts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Hashable, Iterable, List, Tuple

import numpy as np

from .records import ExperimentResult

__all__ = [
    "ImageFlags",
    "accuracy",
    "image_flags",
    "instability",
    "per_class_instability",
    "per_class_accuracy",
    "per_environment_accuracy",
    "unstable_image_ids",
    "image_stability_breakdown",
]


def accuracy(result: ExperimentResult, k: int = 1) -> float:
    """Fraction of records whose top-k contains the true label."""
    if not len(result):
        raise ValueError("empty result")
    return float(np.mean([r.is_correct(k) for r in result]))


@dataclass(frozen=True)
class ImageFlags:
    """§2.2 flags per image, in ascending ``ids``, and the per-record
    columns behind them, in result order."""

    ids: np.ndarray
    eligible: np.ndarray  # seen by two or more environments
    any_correct: np.ndarray
    any_incorrect: np.ndarray
    image: np.ndarray  # each record's row in the per-image arrays
    environment: np.ndarray  # index into environments (first-seen order)
    environments: List[str]
    correct: np.ndarray  # top-k, aliases included

    @property
    def unstable(self) -> np.ndarray:
        return self.eligible & self.any_correct & self.any_incorrect


def key_codes(keys: Iterable[Hashable]) -> Tuple[np.ndarray, List[Hashable]]:
    """Each key's index among the distinct keys, which are in first-seen order."""
    index: Dict[Hashable, int] = {}
    codes = [index.setdefault(key, len(index)) for key in keys]
    return np.array(codes, dtype=np.int64), list(index)


def _pair(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """One non-negative integer key per (major, minor) code pair."""
    return major * (int(minor.max(initial=0)) + 1) + minor


def _flags(image: np.ndarray, environment: np.ndarray, correct: np.ndarray):
    """Each image key's first record, each record's key row, and per key
    the eligible / any-correct / any-incorrect flags."""
    _, first, row = np.unique(image, return_index=True, return_inverse=True)
    _, seen = np.unique(_pair(row, environment), return_index=True)
    n_envs, n_correct, n_records = (
        np.bincount(rows, minlength=first.size)
        for rows in (row[seen], row[correct], row)
    )
    return first, row, n_envs >= 2, n_correct > 0, n_correct < n_records


def image_flags(result: ExperimentResult, k: int = 1) -> ImageFlags:
    """Flag every image of ``result`` at top-k; see :class:`ImageFlags`."""
    ids = np.array([r.image_id for r in result], dtype=np.int64)
    environment, environments = key_codes(r.environment for r in result)
    correct = np.array([r.is_correct(k) for r in result], dtype=bool)
    first, image, *flags = _flags(ids, environment, correct)
    return ImageFlags(ids[first], *flags, image, environment, environments, correct)


_UNDEFINED = (
    "no image was observed in two or more environments; instability is undefined"
)


def instability_by(
    group: np.ndarray, names: List, image: np.ndarray, environment: np.ndarray,
    correct: np.ndarray,
) -> Dict:
    """§2.2 instability per group of records, each image keyed by (group, image)."""
    first, _, eligible, any_correct, any_incorrect = _flags(
        _pair(group, image), environment, correct
    )
    owner = group[first]
    n_eligible, n_unstable = (
        np.bincount(owner[mask], minlength=len(names))
        for mask in (eligible, eligible & any_correct & any_incorrect)
    )
    if not n_eligible.all():
        raise ValueError(_UNDEFINED)
    return {name: int(u) / int(e) for name, u, e in zip(names, n_unstable, n_eligible)}


def _accuracy_by(group: np.ndarray, names: List, correct: np.ndarray) -> Dict:
    hits = np.bincount(group[correct], minlength=len(names))
    totals = np.bincount(group, minlength=len(names))
    return {name: int(h) / int(t) for name, h, t in zip(names, hits, totals)}


def unstable_image_ids(result: ExperimentResult, k: int = 1) -> List[int]:
    """Ids of images with at least one correct and one incorrect prediction."""
    flags = image_flags(result, k)
    return flags.ids[flags.unstable].tolist()


def instability(result: ExperimentResult, k: int = 1) -> float:
    """The paper's headline metric; see module docstring."""
    flags = image_flags(result, k)
    if not flags.eligible.any():
        raise ValueError(_UNDEFINED)
    return int(flags.unstable.sum()) / int(flags.eligible.sum())


def image_stability_breakdown(
    result: ExperimentResult, k: int = 1
) -> Dict[str, List[int]]:
    """Partition image ids into stable-correct / stable-incorrect / unstable.

    Backs the paper's Figure 4 confidence analysis.
    """
    f = image_flags(result, k)
    return {
        "stable_correct": f.ids[f.eligible & f.any_correct & ~f.any_incorrect].tolist(),
        "stable_incorrect": f.ids[f.eligible & ~f.any_correct].tolist(),
        "unstable": f.ids[f.unstable].tolist(),
    }


def per_class_instability(result: ExperimentResult, k: int = 1) -> Dict[str, float]:
    """Instability computed separately per ground-truth class (Fig. 3b)."""
    flags = image_flags(result, k)
    group, classes = key_codes(r.class_name for r in result)
    return instability_by(group, classes, flags.image, flags.environment, flags.correct)


def per_class_accuracy(
    result: ExperimentResult, k: int = 1
) -> Dict[str, float]:
    group, classes = key_codes(r.class_name for r in result)
    return _accuracy_by(group, classes, image_flags(result, k).correct)


def per_environment_accuracy(
    result: ExperimentResult, k: int = 1
) -> Dict[str, float]:
    """Accuracy per environment (Fig. 3a: accuracy by phone model)."""
    flags = image_flags(result, k)
    return _accuracy_by(flags.environment, flags.environments, flags.correct)
