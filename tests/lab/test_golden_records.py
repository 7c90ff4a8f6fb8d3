"""Golden byte-hash regression for every lab experiment's records.

Each experiment runs at ``per_class=1`` with the ``tiny_model`` fixture;
the SHA-256 of the :func:`repro.core.serialize.save_result` file of every
result (both arms of raw-vs-JPEG), and the ``avg_size_bytes`` table of
each compression experiment, are pinned in
``tests/data/golden_records.json``. Coverage:

* end-to-end — two angles x two repeat shots on the paper's fleet;
* JPEG quality, formats and ISP comparison — one shared raw bank;
* raw vs JPEG — the JPEG arm and the raw arm;
* lighting and lens variation;
* Fig. 1 — every :func:`repeat_shot_demo` outcome field (``max_scenes=5``);
* the stability corpus — SHA-256 of its tensors and labels
  (``per_class=1``, one angle) — and the ``save_result`` digest of
  :func:`evaluate_cross_device_instability` on it.

This is the tripwire for the record-building layer above the capture
path (chunking payloads per environment, inference batching,
``make_record`` bookkeeping): a change that moves one record field fails
here. Regenerate intentionally with::

    PYTHONPATH=src python -m pytest tests/lab/test_golden_records.py --regen-golden
"""

import hashlib
import json
from pathlib import Path

import numpy as np
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
    repeat_shot_demo,
)
from repro.mitigation import build_stability_corpus, evaluate_cross_device_instability

GOLDEN_PATH = Path(__file__).resolve().parents[1] / "data" / "golden_records.json"


def _digest(result, tmp_path) -> str:
    path = tmp_path / f"{result.name.replace('/', '_')}.json"
    save_result(result, path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _corpus_digest(corpus) -> str:
    digest = hashlib.sha256()
    for name in (
        "x_train_primary",
        "x_train_secondary",
        "y_train",
        "x_test_primary",
        "x_test_secondary",
        "y_test",
    ):
        array = np.ascontiguousarray(getattr(corpus, name))
        digest.update(f"{name} {array.dtype.str} {array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def _repeat_shot_fields(outcome) -> dict:
    diff = outcome.diff
    return {
        "first_label": outcome.first_label,
        "second_label": outcome.second_label,
        "first_confidence": outcome.first_confidence,
        "second_confidence": outcome.second_confidence,
        "true_label": outcome.true_label,
        "divergent_fraction": diff.divergent_fraction,
        "threshold": diff.threshold,
        "mean_abs_diff": diff.mean_abs_diff,
        "max_abs_diff": diff.max_abs_diff,
        "mask_sha256": hashlib.sha256(np.packbits(diff.mask).tobytes()).hexdigest(),
    }


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
    corpus = build_stability_corpus(per_class=1, angles=(0.0,), seed=0)
    outcome = repeat_shot_demo(model=tiny_model, seed=0, max_scenes=5)
    current = {
        "records": {name: _digest(r, tmp_path) for name, r in sorted(results.items())},
        "avg_size_bytes": sizes,
        "repeat_shot": _repeat_shot_fields(outcome),
        "stability_corpus": _corpus_digest(corpus),
        "stability_eval": _digest(
            evaluate_cross_device_instability(tiny_model, corpus), tmp_path
        ),
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
    assert current["repeat_shot"] == golden["repeat_shot"]
    assert current["stability_corpus"] == golden["stability_corpus"]
    assert current["stability_eval"] == golden["stability_eval"]
