"""Population-level instability statistics over one columnar record table.

The paper reports one instability number over five phones; a population
study needs the *distribution*: per-device divergence percentiles,
outlier devices, accuracy spread. :func:`aggregate_tables` computes the
counts behind those in one pass over a study's record table
(:meth:`~repro.fleet.columnar.ColumnarStore.table`):

* the population's votes per ``(scene, repeat, step)`` presentation key
  and label, and the fleet-consensus label per key: the majority, ties
  to the lowest label;
* per device: records, disagreements with the consensus, correct
  predictions, and the confidence sum in 2^24 fixed point.

Every count is an integer, confidence included, so the summary does not
depend on float summation order. :func:`population_summary` turns them
into percentiles and outliers.

Two instability definitions live in this package. The summary's
``population_instability`` and the drift study's per-step
``instability`` count a *split vote*: a presentation is unstable when
any two devices predict different labels.
:func:`repro.core.instability.instability` is the paper's §2.2: one
environment right and one wrong. They differ when every device is
wrong, in different ways: a split vote here, stable under §2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

__all__ = [
    "RECORD_DTYPE",
    "TableDims",
    "PopulationCounts",
    "aggregate_tables",
    "robust_outliers",
    "population_summary",
]

#: One capture record: who, what, when, and what the model said. Fixed
#: width (28 bytes) — a million records is 28 MB, never a million
#: Python objects.
RECORD_DTYPE = np.dtype(
    [
        ("device", "<u4"),
        ("scene", "<u4"),
        ("repeat", "<u2"),
        ("step", "<u2"),
        ("true_label", "<i2"),
        ("predicted", "<i2"),
        ("confidence", "<f4"),
        ("encoded_size", "<i8"),
    ]
)

#: Fixed-point scale for confidence accumulation (see module docstring).
CONF_SCALE = 1 << 24


@dataclass(frozen=True)
class TableDims:
    """The key space a record table lives in."""

    n_devices: int
    n_scenes: int
    n_repeats: int
    n_steps: int
    n_labels: int

    def __post_init__(self) -> None:
        for name in ("n_devices", "n_scenes", "n_repeats", "n_steps", "n_labels"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")

    @property
    def n_keys(self) -> int:
        return self.n_scenes * self.n_repeats * self.n_steps

    def key_of(self, table: np.ndarray) -> np.ndarray:
        """Presentation-key index for every record (vectorized)."""
        scene = table["scene"].astype(np.int64)
        repeat = table["repeat"].astype(np.int64)
        step = table["step"].astype(np.int64)
        if scene.size:
            for name, values, bound in (
                ("scene", scene, self.n_scenes),
                ("repeat", repeat, self.n_repeats),
                ("step", step, self.n_steps),
            ):
                if int(values.max()) >= bound:
                    raise ValueError(
                        f"{name} index {int(values.max())} out of range "
                        f"for bound {bound}"
                    )
        return (scene * self.n_repeats + repeat) * self.n_steps + step


@dataclass(frozen=True)
class PopulationCounts:
    """The integer sums of one record table (see :func:`aggregate_tables`)."""

    dims: TableDims
    votes: np.ndarray  # (n_keys, n_labels): records predicting label at key
    consensus: np.ndarray  # (n_keys,): majority label, ties to the lowest
    records: np.ndarray  # (n_devices,) records per device
    disagree: np.ndarray  # records whose prediction != consensus
    correct: np.ndarray  # records whose prediction == true label
    confidence_q: np.ndarray  # fixed-point confidence sum (CONF_SCALE)


def aggregate_tables(table: np.ndarray, dims: TableDims) -> PopulationCounts:
    """Votes, consensus and per-device sums of one record table, in one pass."""
    keys = dims.key_of(table)
    devices = table["device"].astype(np.int64)
    predicted = table["predicted"].astype(np.int64)
    if table.shape[0]:
        if int(predicted.min()) < 0 or int(predicted.max()) >= dims.n_labels:
            raise ValueError("predicted label out of range")
        if int(devices.max()) >= dims.n_devices:
            raise ValueError("device index out of range")
    votes = np.bincount(
        keys * dims.n_labels + predicted, minlength=dims.n_keys * dims.n_labels
    ).reshape(dims.n_keys, dims.n_labels)
    consensus = np.argmax(votes, axis=1)

    def per_device(weights=None) -> np.ndarray:
        # Float weights sum exactly: every partial sum is an integer < 2^53.
        return np.bincount(
            devices, weights=weights, minlength=dims.n_devices
        ).astype(np.int64)

    confidence_q = np.round(
        table["confidence"].astype(np.float64) * CONF_SCALE
    ).astype(np.int64)
    return PopulationCounts(
        dims=dims,
        votes=votes,
        consensus=consensus,
        records=per_device(),
        disagree=per_device(predicted != consensus[keys]),
        correct=per_device(predicted == table["true_label"].astype(np.int64)),
        confidence_q=per_device(confidence_q),
    )


def robust_outliers(
    values: np.ndarray, threshold: float = 3.5
) -> Tuple[np.ndarray, np.ndarray]:
    """Outlier flags and robust z-scores via the MAD rule.

    ``z = (x - median) / (1.4826 * MAD)``. A zero MAD (more than half
    the population exactly at the median — common when per-device
    divergence is quantized by a small scene count) falls back to the
    Iglewicz–Hoaglin scaled *mean* absolute deviation, ``1.253314 *
    meanAD``, instead of declaring every off-median device an outlier.
    If that is zero too, the population is constant and nothing is
    flagged.
    """
    values = np.asarray(values, dtype=np.float64)
    median = float(np.median(values))
    deviations = np.abs(values - median)
    scale = 1.4826 * float(np.median(deviations))
    if scale == 0.0:
        scale = 1.253314 * float(deviations.mean())
    if scale == 0.0:
        z = np.zeros_like(values)
    else:
        z = deviations / scale
    return z > threshold, z


#: Percentiles reported for every population distribution.
SUMMARY_PERCENTILES: Tuple[int, ...] = (5, 25, 50, 75, 90, 95, 99)


def _percentile_row(values: np.ndarray, qs: Sequence[int]) -> Dict[str, float]:
    return {f"p{q}": float(np.percentile(values, q)) for q in qs}


def population_summary(
    counts: PopulationCounts,
    device_names: Sequence[str] = (),
    percentiles: Sequence[int] = SUMMARY_PERCENTILES,
    outlier_threshold: float = 3.5,
    max_outliers: int = 20,
) -> Dict[str, object]:
    """The population-level report the paper's five phones couldn't give.

    Returns a JSON-ready dict: population size and record count,
    divergence/accuracy/confidence percentiles across devices,
    presentation-level instability (fraction of presentations with a
    split vote), and the outlier devices by robust z-score.
    """
    measured = counts.records > 0
    n_records = np.maximum(counts.records, 1)
    divergence = (counts.disagree / n_records)[measured]
    accuracy = (counts.correct / n_records)[measured]
    confidence = (counts.confidence_q / (CONF_SCALE * n_records))[measured]
    measured_indices = np.flatnonzero(measured)
    if not divergence.size:
        raise ValueError("no measured devices to summarize")

    flags, z = robust_outliers(divergence, threshold=outlier_threshold)
    order = np.lexsort((measured_indices, -z))
    outliers: List[Dict[str, object]] = []
    for pos in order:
        if not flags[pos] or len(outliers) >= max_outliers:
            continue
        device = int(measured_indices[pos])
        outliers.append(
            {
                "device": device,
                "name": device_names[device] if device_names else str(device),
                "divergence": float(divergence[pos]),
                "accuracy": float(accuracy[pos]),
                "robust_z": float(z[pos]),
            }
        )

    keyed = counts.votes.sum(axis=1) > 0
    split = ((counts.votes > 0).sum(axis=1) > 1)[keyed]
    return {
        "devices": int(counts.dims.n_devices),
        "devices_measured": int(measured.sum()),
        "records": int(counts.records.sum()),
        "presentations": int(keyed.sum()),
        "population_instability": float(split.mean()) if split.size else 0.0,
        "mean_divergence": float(divergence.mean()),
        "divergence_percentiles": _percentile_row(divergence, percentiles),
        "accuracy_percentiles": _percentile_row(accuracy, percentiles),
        "confidence_percentiles": _percentile_row(confidence, percentiles),
        "outlier_threshold": float(outlier_threshold),
        "outlier_count": int(flags.sum()),
        "outliers": outliers,
    }

