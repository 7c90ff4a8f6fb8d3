"""Population-level instability statistics over columnar record tables.

The paper reports one instability number over five phones; a population
study needs the *distribution*: per-device divergence percentiles,
outlier devices, accuracy spread. This module computes those from
:class:`~repro.fleet.columnar.ColumnarStore` record batches in two
passes:

1. :class:`ConsensusCounts` — per ``(scene, repeat, step)`` presentation
   key, how often each label was predicted across the whole population.
   The fleet-consensus label is the majority, ties to the lowest label.
2. :class:`DeviceStats` — per device, how many records, how many agreed
   with the consensus, how many were correct, and fixed-point confidence
   and byte totals.

Every accumulator is an integer sum, with confidence in 2^24 fixed
point rather than floating point: float addition is not associative,
integer addition is, so the result does not depend on how the records
were cut into batches (``tests/fleet/test_stats.py`` proves it).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

__all__ = [
    "RECORD_DTYPE",
    "TableDims",
    "ConsensusCounts",
    "DeviceStats",
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


@dataclass
class ConsensusCounts:
    """Population vote counts per presentation key (pass 1).

    ``counts[key, label]`` is how many records predicted ``label`` for
    presentation ``key``.
    """

    dims: TableDims
    counts: np.ndarray  # (n_keys, n_labels) int64

    @classmethod
    def empty(cls, dims: TableDims) -> "ConsensusCounts":
        return cls(dims=dims, counts=np.zeros((dims.n_keys, dims.n_labels), np.int64))

    @classmethod
    def from_table(cls, table: np.ndarray, dims: TableDims) -> "ConsensusCounts":
        out = cls.empty(dims)
        out.accumulate(table)
        return out

    def accumulate(self, table: np.ndarray) -> None:
        """Fold one record batch into the counts."""
        if not table.shape[0]:
            return
        keys = self.dims.key_of(table)
        labels = table["predicted"].astype(np.int64)
        if int(labels.min()) < 0 or int(labels.max()) >= self.dims.n_labels:
            raise ValueError("predicted label out of range")
        flat = keys * self.dims.n_labels + labels
        self.counts += np.bincount(
            flat, minlength=self.dims.n_keys * self.dims.n_labels
        ).reshape(self.dims.n_keys, self.dims.n_labels)

    def consensus_labels(self) -> np.ndarray:
        """Majority label per key; ties break to the lowest label.

        Keys nobody recorded get ``-1`` (no record can match it, and no
        device has a record there to be judged against it either).
        """
        labels = np.argmax(self.counts, axis=1).astype(np.int64)
        labels[self.counts.sum(axis=1) == 0] = -1
        return labels

    def disagreement_keys(self) -> np.ndarray:
        """Boolean mask of keys where the population split its vote.

        The population analogue of the paper's per-image instability:
        a presentation is unstable iff at least two devices disagreed.
        """
        return (self.counts > 0).sum(axis=1) > 1


@dataclass
class DeviceStats:
    """Per-device aggregates versus the fleet consensus (pass 2).

    All fields are integer sums, independent of batch boundaries.
    """

    dims: TableDims
    records: np.ndarray  # (n_devices,) int64
    disagree: np.ndarray  # records whose prediction != consensus
    correct: np.ndarray  # records whose prediction == true label
    confidence_q: np.ndarray  # fixed-point confidence sum (CONF_SCALE)
    bytes_total: np.ndarray  # encoded_size sum

    @classmethod
    def empty(cls, dims: TableDims) -> "DeviceStats":
        zeros = lambda: np.zeros(dims.n_devices, np.int64)  # noqa: E731
        return cls(
            dims=dims,
            records=zeros(),
            disagree=zeros(),
            correct=zeros(),
            confidence_q=zeros(),
            bytes_total=zeros(),
        )

    @classmethod
    def from_table(
        cls, table: np.ndarray, consensus: np.ndarray, dims: TableDims
    ) -> "DeviceStats":
        out = cls.empty(dims)
        out.accumulate(table, consensus)
        return out

    def accumulate(self, table: np.ndarray, consensus: np.ndarray) -> None:
        """Fold one record batch, judged against the global consensus."""
        if not table.shape[0]:
            return
        devices = table["device"].astype(np.int64)
        if int(devices.max()) >= self.dims.n_devices:
            raise ValueError("device index out of range")
        keys = self.dims.key_of(table)
        predicted = table["predicted"].astype(np.int64)
        n = self.dims.n_devices
        self.records += np.bincount(devices, minlength=n)
        self.disagree += np.bincount(
            devices, weights=(predicted != consensus[keys]), minlength=n
        ).astype(np.int64)
        self.correct += np.bincount(
            devices,
            weights=(predicted == table["true_label"].astype(np.int64)),
            minlength=n,
        ).astype(np.int64)
        conf_fixed = np.round(
            table["confidence"].astype(np.float64) * CONF_SCALE
        ).astype(np.int64)
        self.confidence_q += np.bincount(devices, weights=conf_fixed, minlength=n).astype(
            np.int64
        )
        self.bytes_total += np.bincount(
            devices, weights=table["encoded_size"].astype(np.int64), minlength=n
        ).astype(np.int64)

    # -- derived (computed once, from exact integer sums) --------------
    def divergence(self) -> np.ndarray:
        """Per-device fraction of records disagreeing with the consensus."""
        return self.disagree / np.maximum(self.records, 1)

    def accuracy(self) -> np.ndarray:
        """Per-device top-1 accuracy."""
        return self.correct / np.maximum(self.records, 1)

    def mean_confidence(self) -> np.ndarray:
        return self.confidence_q / (CONF_SCALE * np.maximum(self.records, 1))


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
    stats: DeviceStats,
    consensus: ConsensusCounts,
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
    measured = stats.records > 0
    divergence = stats.divergence()[measured]
    accuracy = stats.accuracy()[measured]
    confidence = stats.mean_confidence()[measured]
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

    keyed = consensus.counts.sum(axis=1) > 0
    split = consensus.disagreement_keys()[keyed]
    return {
        "devices": int(stats.dims.n_devices),
        "devices_measured": int(measured.sum()),
        "records": int(stats.records.sum()),
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


def aggregate_tables(
    tables: Iterable[np.ndarray], dims: TableDims
) -> Tuple[ConsensusCounts, DeviceStats]:
    """Two-pass aggregation over record batches.

    Pass 1 folds every batch into :class:`ConsensusCounts`; pass 2
    folds them again against the frozen consensus. Both passes are
    integer sums, so the result is independent of how records were
    split into batches.
    """
    tables = list(tables)
    consensus = ConsensusCounts.empty(dims)
    for table in tables:
        consensus.accumulate(table)
    labels = consensus.consensus_labels()
    stats = DeviceStats.empty(dims)
    for table in tables:
        stats.accumulate(table, labels)
    return consensus, stats
