"""Golden outputs of the two real fleet studies.

``tests/data/golden_studies.json`` (refresh with ``pytest
--regen-golden``, only on purpose) pins, for one population study and
one drift study:

* the SHA-256 of ``store.table()``'s bytes — every record field;
* the row count of every appended chunk, in order — the population
  study appends one table per ``DEVICE_CHUNK`` of devices (70 devices
  span two chunks), the drift study one per time step;
* the summary JSON, and the drift study's per-step table.

Both studies run the untrained seed-0 ``micro_mobilenet``. That model
agrees with itself on every scene, so population instability and
divergence read 0 here: this golden pins the store bytes and the
confidence and accuracy percentiles. Consensus under real disagreement
stays pinned by the synthetic ``fleet_population_golden.json``
(``tests/fleet/test_stats.py``).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.fleet import run_drift_study, run_population_study
from repro.nn.model import micro_mobilenet

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_studies.json"


@pytest.fixture(scope="module")
def study_model():
    return micro_mobilenet(num_classes=8, seed=0)


def _fingerprint(outcome):
    table = np.ascontiguousarray(outcome.store.table())
    return {
        "table_sha256": hashlib.sha256(table.tobytes()).hexdigest(),
        "chunk_rows": [int(t.shape[0]) for t in outcome.store.iter_tables()],
        "summary": outcome.summary,
    }


def _build(model):
    population = run_population_study(fleet_size=70, scenes=2, seed=0, model=model)
    drift = run_drift_study(fleet_size=20, steps=3, photos=6, seed=3, model=model)
    drift_print = _fingerprint(drift)
    drift_print["step_table"] = drift.step_table
    payload = {"population": _fingerprint(population), "drift": drift_print}
    return json.loads(json.dumps(payload, sort_keys=True))


def test_studies_match_golden(study_model, regen_golden):
    payload = _build(study_model)
    if regen_golden:
        GOLDEN_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden regenerated")
    assert payload == json.loads(GOLDEN_PATH.read_text())


def test_pooled_population_matches_golden(study_model):
    """Two workers stream across the chunk boundary into a partial chunk."""
    pooled = run_population_study(
        fleet_size=70, scenes=2, seed=0, workers=2, model=study_model
    )
    payload = json.loads(json.dumps(_fingerprint(pooled), sort_keys=True))
    assert payload == json.loads(GOLDEN_PATH.read_text())["population"]


def test_golden_spans_two_device_chunks():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert golden["population"]["chunk_rows"] == [128, 12]
    assert golden["drift"]["chunk_rows"] == [120, 120, 120]
