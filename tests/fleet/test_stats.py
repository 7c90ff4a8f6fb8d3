"""Statistical aggregation tests: a per-record reference, outliers, goldens.

Two regression layers:

* **Per-record reference** (Hypothesis): :func:`aggregate_tables` counts
  a table in one vectorized pass; ``_reference`` walks it one row at a
  time in Python (votes per presentation key, the majority label with
  ties to the lowest, per-device integer sums with confidence in 2^24
  fixed point). Small label and device counts make ties common.
* **Golden outputs** (``tests/data/fleet_population_golden.json``,
  refresh with ``pytest --regen-golden``): the full population summary
  for a fixed-seed 200-device fleet over a synthetic record table, plus
  percentiles of the sampled sensor parameters. Any drift in sampling,
  consensus, percentile, or outlier arithmetic shows up as a diff here.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet import (
    CONF_SCALE,
    TableDims,
    aggregate_tables,
    generate_devices,
    population_summary,
    robust_outliers,
)
from repro.fleet.stats import RECORD_DTYPE
from repro.runner.seeds import derive_rng

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "fleet_population_golden.json"

DIMS = TableDims(n_devices=50, n_scenes=6, n_repeats=2, n_steps=2, n_labels=8)


def _random_table(rows, seed, dims=DIMS):
    rng = np.random.default_rng(seed)
    table = np.empty(rows, dtype=RECORD_DTYPE)
    table["device"] = rng.integers(0, dims.n_devices, rows)
    table["scene"] = rng.integers(0, dims.n_scenes, rows)
    table["repeat"] = rng.integers(0, dims.n_repeats, rows)
    table["step"] = rng.integers(0, dims.n_steps, rows)
    table["true_label"] = rng.integers(0, dims.n_labels, rows)
    table["predicted"] = rng.integers(0, dims.n_labels, rows)
    table["confidence"] = rng.random(rows, dtype=np.float32)
    table["encoded_size"] = rng.integers(500, 40000, rows)
    return table


def _reference(table, dims):
    """Votes, consensus and per-device sums, one row at a time."""
    votes = {}
    for row in table:
        key = (int(row["scene"]), int(row["repeat"]), int(row["step"]))
        votes.setdefault(key, [0] * dims.n_labels)[int(row["predicted"])] += 1
    # list.index finds the first maximum: ties go to the lowest label.
    consensus = {key: counts.index(max(counts)) for key, counts in votes.items()}
    sums = {
        name: [0] * dims.n_devices
        for name in ("records", "disagree", "correct", "confidence_q")
    }
    for row in table:
        device, predicted = int(row["device"]), int(row["predicted"])
        key = (int(row["scene"]), int(row["repeat"]), int(row["step"]))
        sums["records"][device] += 1
        sums["disagree"][device] += predicted != consensus[key]
        sums["correct"][device] += predicted == int(row["true_label"])
        sums["confidence_q"][device] += int(
            round(float(row["confidence"]) * CONF_SCALE)
        )
    return votes, consensus, sums


class TestReference:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(0, 300),
        n_devices=st.integers(1, 6),
        n_labels=st.integers(1, 4),
    )
    def test_matches_per_record_reference(self, seed, rows, n_devices, n_labels):
        dims = TableDims(
            n_devices=n_devices, n_scenes=3, n_repeats=2, n_steps=2, n_labels=n_labels
        )
        table = _random_table(rows, seed, dims)
        counts = aggregate_tables(table, dims)
        votes, consensus, sums = _reference(table, dims)
        for scene in range(dims.n_scenes):
            for repeat in range(dims.n_repeats):
                for step in range(dims.n_steps):
                    k = (scene * dims.n_repeats + repeat) * dims.n_steps + step
                    key = (scene, repeat, step)
                    expected = votes.get(key, [0] * n_labels)
                    assert counts.votes[k].tolist() == expected, key
                    if key in consensus:
                        assert int(counts.consensus[k]) == consensus[key], key
        for name, expected in sums.items():
            assert getattr(counts, name).tolist() == expected, name


class TestConsensus:
    def test_majority_wins(self):
        dims = TableDims(n_devices=3, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(3, dtype=RECORD_DTYPE)
        table["device"] = [0, 1, 2]
        table["predicted"] = [2, 2, 1]
        counts = aggregate_tables(table, dims)
        assert counts.consensus.tolist() == [2]
        assert counts.disagree.tolist() == [0, 0, 1]
        assert population_summary(counts)["population_instability"] == 1.0

    def test_tie_breaks_to_lowest_label(self):
        dims = TableDims(n_devices=2, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(2, dtype=RECORD_DTYPE)
        table["device"] = [0, 1]
        table["predicted"] = [3, 1]
        assert aggregate_tables(table, dims).consensus.tolist() == [1]

    def test_out_of_range_fields_rejected(self):
        dims = TableDims(n_devices=2, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        cases = (("scene", 5), ("device", 2), ("predicted", 4), ("predicted", -1))
        for field, value in cases:
            table = np.zeros(1, dtype=RECORD_DTYPE)
            table[field] = value
            with pytest.raises(ValueError):
                aggregate_tables(table, dims)


class TestConfidenceFixedPoint:
    def test_quantized_sum_is_exact_integer_state(self):
        table = _random_table(1000, seed=1)
        counts = aggregate_tables(table, DIMS)
        expected = np.zeros(DIMS.n_devices, dtype=np.int64)
        for row in table:
            expected[row["device"]] += int(
                round(float(row["confidence"]) * CONF_SCALE)
            )
        assert np.array_equal(counts.confidence_q, expected)


class TestRobustOutliers:
    def test_single_extreme_flagged(self):
        values = np.array([0.1, 0.11, 0.1, 0.09, 0.1, 5.0])
        flags, z = robust_outliers(values)
        assert flags.tolist() == [False] * 5 + [True]
        assert np.isfinite(z).all()

    def test_zero_mad_falls_back_to_mean_deviation(self):
        # >50% identical values: MAD is 0, but only the far point is an
        # outlier — nearby off-median values must NOT be flagged.
        values = np.array([0.0] * 10 + [0.001, 100.0])
        flags, z = robust_outliers(values)
        assert flags.sum() == 1 and flags[-1]
        assert np.isfinite(z).all()

    def test_constant_population_has_no_outliers(self):
        flags, z = robust_outliers(np.full(9, 0.25))
        assert not flags.any()
        assert np.array_equal(z, np.zeros(9))


class TestGolden:
    """Fixed-seed 200-device fleet: percentiles and outliers are frozen."""

    def _build(self):
        devices = generate_devices(200, seed=2021)
        dims = TableDims(
            n_devices=200, n_scenes=6, n_repeats=1, n_steps=1, n_labels=8
        )
        # Synthetic records derived per-device from the population seed:
        # deterministic, but with real disagreement/outlier structure
        # (devices 0 and 7 diverge on most scenes).
        rows = []
        for device in devices:
            rng = derive_rng(2021, "fleet.golden", device.index)
            for scene in range(6):
                base = scene % 8
                flip = rng.random() < (0.6 if device.index in (0, 7) else 0.04)
                rows.append(
                    (
                        device.index,
                        scene,
                        0,
                        0,
                        base,
                        (base + 1) % 8 if flip else base,
                        round(float(rng.random()), 4),
                        int(rng.integers(1000, 30000)),
                    )
                )
        table = np.array(rows, dtype=RECORD_DTYPE)
        summary = population_summary(
            aggregate_tables(table, dims),
            device_names=[d.profile.name for d in devices],
        )
        params = {
            "full_well_percentiles": {
                f"p{q}": float(
                    np.percentile([d.spec.full_well for d in devices], q)
                )
                for q in (5, 50, 95)
            },
            "read_noise_percentiles": {
                f"p{q}": float(
                    np.percentile([d.spec.read_noise for d in devices], q)
                )
                for q in (5, 50, 95)
            },
            "vendor_counts": {
                vendor: sum(1 for d in devices if d.vendor == vendor)
                for vendor in sorted({d.vendor for d in devices})
            },
        }
        return {"summary": summary, "parameters": params}

    def test_population_summary_matches_golden(self, regen_golden):
        payload = json.loads(json.dumps(self._build(), sort_keys=True))
        if regen_golden:
            GOLDEN_PATH.write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n"
            )
            pytest.skip("golden regenerated")
        golden = json.loads(GOLDEN_PATH.read_text())
        assert payload == golden

    def test_golden_has_expected_structure(self):
        golden = json.loads(GOLDEN_PATH.read_text())
        assert golden["summary"]["devices"] == 200
        assert golden["summary"]["records"] == 1200
        # The two planted divergent devices (indices 0 and 7) rank as the
        # strongest outliers; background flips may add a few weaker ones.
        outliers = golden["summary"]["outliers"]
        assert golden["summary"]["outlier_count"] >= 2
        assert outliers[0]["name"].endswith("-000000")
        assert outliers[1]["name"].endswith("-000007")
        assert outliers[0]["robust_z"] >= outliers[1]["robust_z"]
