"""Fleet study tests: determinism across workers/cache, drift structure.

Studies run here with an explicit untrained model (seed chosen so
predictions depend on input) — never :func:`repro.fleet.fleet_model`,
which would train the quick-train base model inside the tier-1 suite.
The CI ``fleet-smoke`` job exercises the trained default end to end.
"""

import json

import numpy as np
import pytest

from repro.devices.profiles import CAPTURE_SPECS, capture_fleet
from repro.fleet import (
    fixed_devices,
    run_drift_study,
    run_population_study,
)
from repro.nn.model import micro_mobilenet
from repro.runner.cache import CaptureCache


@pytest.fixture(scope="module")
def study_model():
    """Untrained but input-sensitive (seed 0; most seeds collapse)."""
    return micro_mobilenet(num_classes=8, seed=0)


def _summary_json(outcome):
    return json.dumps(outcome.summary, sort_keys=True)


class TestPopulationStudyDeterminism:
    def test_parallel_matches_serial(self, study_model):
        serial = run_population_study(
            fleet_size=6, seed=11, scenes=2, workers=0, model=study_model
        )
        parallel = run_population_study(
            fleet_size=6, seed=11, scenes=2, workers=2, model=study_model
        )
        assert np.array_equal(serial.store.table(), parallel.store.table())
        assert _summary_json(serial) == _summary_json(parallel)

    def test_cache_is_output_neutral(self, study_model, tmp_path):
        uncached = run_population_study(
            fleet_size=5, seed=2, scenes=2, model=study_model
        )
        cache = CaptureCache(tmp_path / "cache")
        cold = run_population_study(
            fleet_size=5, seed=2, scenes=2, model=study_model, cache=cache
        )
        warm = run_population_study(
            fleet_size=5, seed=2, scenes=2, model=study_model, cache=cache
        )
        assert np.array_equal(uncached.store.table(), cold.store.table())
        assert np.array_equal(cold.store.table(), warm.store.table())

    def test_summary_shape(self, study_model):
        out = run_population_study(
            fleet_size=5, seed=1, scenes=2, repeats=2, model=study_model
        )
        assert out.store.rows == 5 * 2 * 2
        summary = out.summary
        assert summary["devices"] == 5
        assert summary["records"] == 20
        assert set(summary["divergence_percentiles"]) == {
            "p5", "p25", "p50", "p75", "p90", "p95", "p99",
        }
        assert 0.0 <= summary["population_instability"] <= 1.0
        assert len(out.device_names()) == 5

    def test_paper_fleet_as_degenerate_population(self, study_model):
        out = run_population_study(
            devices=fixed_devices(CAPTURE_SPECS),
            scenes=2,
            seed=0,
            model=study_model,
        )
        assert out.device_names() == [p.name for p in capture_fleet()]
        assert out.summary["devices"] == 5

    def test_validation(self, study_model):
        with pytest.raises(ValueError, match="devices or fleet_size"):
            run_population_study(model=study_model)
        with pytest.raises(ValueError, match="scenes"):
            run_population_study(fleet_size=2, scenes=0, model=study_model)
        with pytest.raises(ValueError, match="repeats"):
            run_population_study(fleet_size=2, repeats=0, model=study_model)


class TestDriftStudy:
    def test_png_corpus_is_perfectly_stable(self, study_model):
        """All decoder families agree on PNG bytes — Table 5's zero row."""
        out = run_drift_study(
            fleet_size=10,
            seed=4,
            steps=3,
            photos=6,
            image_format="png",
            model=study_model,
        )
        assert [row["instability"] for row in out.step_table] == [0.0, 0.0, 0.0]
        assert [row["mean_divergence"] for row in out.step_table] == [0.0, 0.0, 0.0]

    def test_upgrade_rollout_is_monotone(self, study_model):
        out = run_drift_study(
            fleet_size=20, seed=9, steps=5, photos=4, model=study_model
        )
        fractions = [row["upgraded_fraction"] for row in out.step_table]
        assert fractions[0] == 0.0  # nobody upgrades before step 1
        assert fractions == sorted(fractions)
        assert out.store.rows == 20 * 4 * 5

    def test_deterministic_across_runs(self, study_model):
        a = run_drift_study(fleet_size=8, seed=3, steps=3, photos=4, model=study_model)
        b = run_drift_study(fleet_size=8, seed=3, steps=3, photos=4, model=study_model)
        assert np.array_equal(a.store.table(), b.store.table())
        assert a.step_table == b.step_table

    def test_fixed_fleet_never_upgrades(self, study_model):
        out = run_drift_study(
            devices=fixed_devices(CAPTURE_SPECS),
            steps=3,
            photos=4,
            model=study_model,
        )
        assert all(row["upgraded_fraction"] == 0.0 for row in out.step_table)

    def test_validation(self, study_model):
        with pytest.raises(ValueError, match="steps"):
            run_drift_study(fleet_size=2, steps=0, model=study_model)
        with pytest.raises(ValueError, match="photos"):
            run_drift_study(fleet_size=2, photos=0, model=study_model)
