"""Statistical aggregation tests: associativity, outliers, and goldens.

Two regression layers:

* **Chunking invariance** (Hypothesis): cutting a record table into
  arbitrary consecutive chunks and aggregating them gives bit-identical
  integer count state to aggregating the whole table — so the study's
  per-append chunk boundaries never change a summary. It holds because
  every accumulator is an integer sum (confidence in 2^24 fixed point),
  never a float running total.
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
    ConsensusCounts,
    DeviceStats,
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


class TestMergeAssociativity:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        rows=st.integers(1, 400),
        cuts=st.lists(st.integers(0, 400), max_size=5),
    )
    def test_sharded_equals_single_pass(self, seed, rows, cuts):
        table = _random_table(rows, seed)
        bounds = sorted({min(c, rows) for c in cuts} | {0, rows})
        chunks = [
            table[a:b] for a, b in zip(bounds, bounds[1:]) if b > a
        ]
        consensus_whole, stats_whole = aggregate_tables([table], DIMS)
        consensus_cut, stats_cut = aggregate_tables(chunks, DIMS)
        assert np.array_equal(consensus_whole.counts, consensus_cut.counts)
        for field in ("records", "disagree", "correct", "confidence_q", "bytes_total"):
            assert np.array_equal(
                getattr(stats_whole, field), getattr(stats_cut, field)
            ), field

    def test_aggregate_tables_matches_manual(self):
        table = _random_table(300, seed=4)
        consensus_a, stats_a = aggregate_tables([table], DIMS)
        consensus_b = ConsensusCounts.from_table(table, DIMS)
        stats_b = DeviceStats.from_table(table, consensus_b.consensus_labels(), DIMS)
        assert np.array_equal(consensus_a.counts, consensus_b.counts)
        assert np.array_equal(stats_a.disagree, stats_b.disagree)
        assert np.array_equal(stats_a.confidence_q, stats_b.confidence_q)


class TestConsensus:
    def test_majority_wins(self):
        dims = TableDims(n_devices=3, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(3, dtype=RECORD_DTYPE)
        table["device"] = [0, 1, 2]
        table["predicted"] = [2, 2, 1]
        counts = ConsensusCounts.from_table(table, dims)
        assert counts.consensus_labels().tolist() == [2]
        assert counts.disagreement_keys().tolist() == [True]

    def test_tie_breaks_to_lowest_label(self):
        dims = TableDims(n_devices=2, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(2, dtype=RECORD_DTYPE)
        table["device"] = [0, 1]
        table["predicted"] = [3, 1]
        counts = ConsensusCounts.from_table(table, dims)
        assert counts.consensus_labels().tolist() == [1]

    def test_unseen_key_is_minus_one(self):
        dims = TableDims(n_devices=2, n_scenes=2, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(1, dtype=RECORD_DTYPE)
        counts = ConsensusCounts.from_table(table, dims)
        assert counts.consensus_labels().tolist() == [0, -1]

    def test_out_of_range_fields_rejected(self):
        dims = TableDims(n_devices=2, n_scenes=1, n_repeats=1, n_steps=1, n_labels=4)
        table = np.zeros(1, dtype=RECORD_DTYPE)
        table["scene"] = 5
        with pytest.raises(ValueError):
            ConsensusCounts.from_table(table, dims)


class TestConfidenceFixedPoint:
    def test_quantized_sum_is_exact_integer_state(self):
        table = _random_table(1000, seed=1)
        labels = ConsensusCounts.from_table(table, DIMS).consensus_labels()
        stats = DeviceStats.from_table(table, labels, DIMS)
        expected = np.zeros(DIMS.n_devices, dtype=np.int64)
        for row in table:
            expected[row["device"]] += int(
                round(float(row["confidence"]) * CONF_SCALE)
            )
        assert np.array_equal(stats.confidence_q, expected)


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
        consensus, stats = aggregate_tables([table], dims)
        summary = population_summary(
            stats, consensus, device_names=[d.profile.name for d in devices]
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
