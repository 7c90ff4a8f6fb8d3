"""Loop reference for the §2.2 metrics, one Python pass per image.

This is the per-record form ``repro.core.instability`` and
``repro.core.analysis`` had before they were derived from
``image_flags``: group records by image in a dict, then test each group.
``tests/core/test_metrics_oracle.py`` compares the two. Every rate is an
integer count over an integer count, as in the library, so the oracle
test compares floats exactly.
"""

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.records import PredictionRecord


def _first_seen(values) -> List:
    return list(dict.fromkeys(values))


def _by_image(records) -> Dict[object, List[PredictionRecord]]:
    groups: Dict[object, List[PredictionRecord]] = {}
    for r in records:
        groups.setdefault(r.image_id, []).append(r)
    return groups


def _image_flags(records, k) -> Optional[Tuple[bool, bool]]:
    """(any_correct, any_incorrect) for one image, or None if < 2 envs."""
    if len({r.environment for r in records}) < 2:
        return None
    correct = [r.is_correct(k) for r in records]
    return any(correct), not all(correct)


def accuracy(records, k=1) -> float:
    records = list(records)
    if not records:
        raise ValueError("empty result")
    return sum(r.is_correct(k) for r in records) / len(records)


def image_stability_breakdown(records, k=1) -> Dict[str, List[int]]:
    out: Dict[str, List[int]] = {
        "stable_correct": [],
        "stable_incorrect": [],
        "unstable": [],
    }
    for image_id, group in _by_image(records).items():
        flags = _image_flags(group, k)
        if flags is None:
            continue
        any_correct, any_incorrect = flags
        if any_correct and any_incorrect:
            out["unstable"].append(image_id)
        elif any_correct:
            out["stable_correct"].append(image_id)
        else:
            out["stable_incorrect"].append(image_id)
    return {name: sorted(ids) for name, ids in out.items()}


def unstable_image_ids(records, k=1) -> List[int]:
    return image_stability_breakdown(records, k)["unstable"]


def instability(records, k=1) -> float:
    breakdown = image_stability_breakdown(records, k)
    n_eligible = sum(len(ids) for ids in breakdown.values())
    if n_eligible == 0:
        raise ValueError("no image observed in two or more environments")
    return len(breakdown["unstable"]) / n_eligible


def per_class_instability(records, k=1) -> Dict[str, float]:
    return {
        cls: instability([r for r in records if r.class_name == cls], k)
        for cls in _first_seen(r.class_name for r in records)
    }


def per_class_accuracy(records, k=1) -> Dict[str, float]:
    return {
        cls: accuracy([r for r in records if r.class_name == cls], k)
        for cls in _first_seen(r.class_name for r in records)
    }


def per_environment_accuracy(records, k=1) -> Dict[str, float]:
    return {
        env: accuracy([r for r in records if r.environment == env], k)
        for env in _first_seen(r.environment for r in records)
    }


def per_angle_instability(records, k=1) -> Dict[float, float]:
    angles = sorted({r.angle for r in records if r.angle is not None})
    if not angles:
        raise ValueError("records carry no angle information")
    return {
        float(angle): instability([r for r in records if r.angle == angle], k)
        for angle in angles
    }


def within_environment_instability(records, k=1) -> Dict[str, float]:
    """Relabel each environment's records: object as image, shot as env."""
    out: Dict[str, float] = {}
    for env in _first_seen(r.environment for r in records):
        relabeled = [
            PredictionRecord(
                environment=f"{r.angle}/{r.metadata.get('repeat', 0)}",
                image_id=r.metadata.get("object_key", r.image_id),
                true_label=r.true_label,
                predicted_label=r.predicted_label,
                confidence=r.confidence,
                class_name=r.class_name,
                ranking=r.ranking,
                angle=r.angle,
                metadata=r.metadata,
                acceptable_labels=r.acceptable_labels,
            )
            for r in records
            if r.environment == env
        ]
        out[env] = instability(relabeled, k)
    return out


def confidence_analysis(records, k=1) -> Dict[str, np.ndarray]:
    breakdown = image_stability_breakdown(records, k)
    stable_correct = set(breakdown["stable_correct"])
    stable_incorrect = set(breakdown["stable_incorrect"])
    unstable = set(breakdown["unstable"])
    out: Dict[str, list] = {
        "stable_correct": [],
        "stable_incorrect": [],
        "unstable_correct": [],
        "unstable_incorrect": [],
    }
    for r in records:
        if r.image_id in stable_correct:
            out["stable_correct"].append(r.confidence)
        elif r.image_id in stable_incorrect:
            out["stable_incorrect"].append(r.confidence)
        elif r.image_id in unstable:
            side = "unstable_correct" if r.is_correct(k) else "unstable_incorrect"
            out[side].append(r.confidence)
    return {name: np.array(values) for name, values in out.items()}
