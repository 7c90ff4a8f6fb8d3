"""Golden byte-hash regression for every lab experiment's records.

Each experiment runs at ``per_class=1`` with the ``tiny_model`` fixture;
the SHA-256 of the :func:`repro.core.serialize.save_result` file of every
result (both arms of raw-vs-JPEG), and the ``avg_size_bytes`` table of
each compression experiment, are pinned in
``tests/data/golden_records.json``. Coverage:

* end-to-end — two angles x two repeat shots on the paper's fleet;
* JPEG quality, formats and ISP comparison — one shared raw bank;
* raw vs JPEG — the JPEG arm and the raw arm;
* lighting and lens variation.

This is the tripwire for the record-building layer above the capture
path (chunking payloads per environment, inference batching,
``make_record`` bookkeeping): a change that moves one record field fails
here. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/lab/test_golden_records.py --regen-golden
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.serialize import save_result
from repro.lab import (
    CompressionFormatExperiment,
    CompressionQualityExperiment,
    EndToEndExperiment,
    ISPComparisonExperiment,
    LensVariationExperiment,
    LightingVariationExperiment,
    RawCaptureBank,
    RawVsJpegExperiment,
)

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_records.json"


def _digest(result, tmp_path) -> str:
    path = tmp_path / f"{result.name.replace('/', '_')}.json"
    save_result(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_experiments(model):
    """``({case: ExperimentResult}, {case: avg_size_bytes})`` for every case."""
    bank = RawCaptureBank.collect(per_class=1, seed=0)
    quality = CompressionQualityExperiment(model=model).run(bank)
    formats = CompressionFormatExperiment(model=model).run(bank)
    raw_vs_jpeg = RawVsJpegExperiment(model=model).run(per_class=1)
    results = {
        "end_to_end": EndToEndExperiment(
            model=model, angles=(0.0, 15.0), repeats=2, seed=0
        ).run(per_class=1),
        "jpeg_quality": quality.result,
        "formats": formats.result,
        "isp_comparison": ISPComparisonExperiment(model=model).run(bank).result,
        "raw_vs_jpeg/jpeg": raw_vs_jpeg.jpeg_result,
        "raw_vs_jpeg/raw": raw_vs_jpeg.raw_result,
        "lighting_variation": LightingVariationExperiment(model=model).run(
            per_class=1
        ),
        "lens_variation": LensVariationExperiment(model=model).run(per_class=1),
    }
    sizes = {
        "jpeg_quality": quality.avg_size_bytes,
        "formats": formats.avg_size_bytes,
    }
    return results, sizes


def test_golden_record_hashes(tiny_model, tmp_path, regen_golden):
    results, sizes = run_experiments(tiny_model)
    current = {
        "records": {name: _digest(r, tmp_path) for name, r in sorted(results.items())},
        "avg_size_bytes": sizes,
    }
    if regen_golden:
        GOLDEN_PATH.write_text(json.dumps(current, indent=2, sort_keys=True) + "\n")
        pytest.skip("golden record hashes regenerated")
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(current["records"]) == sorted(golden["records"])
    drifted = [
        name
        for name in sorted(golden["records"])
        if current["records"][name] != golden["records"][name]
    ]
    assert not drifted, f"experiment records drifted: {drifted}"
    assert current["avg_size_bytes"] == golden["avg_size_bytes"]
