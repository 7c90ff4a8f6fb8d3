"""Integration tests for the lab experiments (small configurations).

These use the untrained ``tiny_model`` fixture — the experiments'
mechanics (capture plumbing, record bookkeeping, metric wiring) do not
depend on model quality, and the benchmark harness covers the calibrated
results.
"""

import numpy as np
import pytest

from repro.core import accuracy, instability
from repro.lab import (
    CompressionFormatExperiment,
    CompressionQualityExperiment,
    EndToEndExperiment,
    ISPComparisonExperiment,
    RawCaptureBank,
    RawVsJpegExperiment,
    repeat_shot_demo,
    scaled_mb,
)
from repro.lab.common import SIZE_SCALE_TO_12MP
from repro.mitigation import simplify_task
from tests.conftest import environments


@pytest.fixture(scope="module")
def small_bank():
    return RawCaptureBank.collect(per_class=1, seed=0)


@pytest.fixture(scope="module")
def end_to_end_result(tiny_model):
    exp = EndToEndExperiment(model=tiny_model, angles=(0.0, 15.0), seed=0)
    return exp.run(per_class=1)


class TestEndToEnd:
    def test_record_counts(self, end_to_end_result):
        # 5 classes x 1 object x 2 angles x 5 phones.
        assert len(end_to_end_result) == 50
        assert len(environments(end_to_end_result)) == 5

    def test_records_carry_probabilities(self, end_to_end_result):
        r = end_to_end_result.records[0]
        assert len(r.metadata["probabilities"]) == 8
        assert r.angle in (0.0, 15.0)

    def test_metrics_computable(self, end_to_end_result):
        assert 0.0 <= accuracy(end_to_end_result) <= 1.0
        assert 0.0 <= instability(end_to_end_result) <= 1.0

    def test_deterministic(self, tiny_model):
        runs = []
        for _ in range(2):
            exp = EndToEndExperiment(model=tiny_model, angles=(0.0,), seed=3)
            result = exp.run(per_class=1)
            runs.append([r.predicted_label for r in result])
        assert runs[0] == runs[1]

    def test_rejects_bad_repeats(self, tiny_model):
        with pytest.raises(ValueError):
            EndToEndExperiment(model=tiny_model, repeats=0)


class TestRawBank:
    def test_bank_covers_both_raw_phones(self, small_bank):
        assert set(small_bank.phone_names) == {"samsung_galaxy_s10", "iphone_xr"}
        assert len(small_bank) == 10  # 5 scenes x 2 phones


class TestCompressionExperiments:
    def test_quality_experiment(self, tiny_model, small_bank):
        out = CompressionQualityExperiment(model=tiny_model).run(small_bank)
        assert set(out.avg_size_bytes) == {"jpeg-q100", "jpeg-q85", "jpeg-q50"}
        # Quality monotonicity in size holds regardless of the model.
        assert (
            out.avg_size_bytes["jpeg-q100"]
            > out.avg_size_bytes["jpeg-q85"]
            > out.avg_size_bytes["jpeg-q50"]
        )
        assert 0.0 <= out.instability() <= 1.0
        accs = out.accuracy_by_environment()
        assert len(accs) == 3

    def test_format_experiment(self, tiny_model, small_bank):
        out = CompressionFormatExperiment(model=tiny_model).run(small_bank)
        assert set(out.avg_size_bytes) == {"jpeg", "png", "webp", "heif"}
        # PNG (lossless) is the biggest, as in the paper's Table 3.
        assert out.avg_size_bytes["png"] == max(out.avg_size_bytes.values())

    def test_scaled_sizes(self, tiny_model, small_bank):
        out = CompressionQualityExperiment(model=tiny_model).run(small_bank)
        for env, size in out.avg_size_bytes.items():
            assert out.avg_size_mb_scaled[env] == pytest.approx(
                size * SIZE_SCALE_TO_12MP / 1e6
            )

    def test_scaled_mb_helper(self):
        assert scaled_mb(1_000_000) == pytest.approx(SIZE_SCALE_TO_12MP)


class TestISPComparison:
    def test_runs_both_isps(self, tiny_model, small_bank):
        out = ISPComparisonExperiment(model=tiny_model).run(small_bank)
        assert set(environments(out.result)) == {"imagemagick", "adobe"}
        assert 0.0 <= out.instability() <= 1.0

    def test_requires_two_isps(self, tiny_model):
        with pytest.raises(ValueError):
            ISPComparisonExperiment(model=tiny_model, isps=("imagemagick",))


class TestRawVsJpeg:
    def test_two_arms_populated(self, tiny_model):
        out = RawVsJpegExperiment(model=tiny_model, seed=0).run(per_class=1)
        assert len(out.jpeg_result) == 10  # 5 scenes x 2 phones
        assert len(out.raw_result) == 10
        assert set(environments(out.jpeg_result)) == {
            "samsung_galaxy_s10",
            "iphone_xr",
        }
        table = out.accuracy_table()
        assert len(table) == 4


class TestTopK:
    def test_topk_never_worse(self, end_to_end_result):
        report = simplify_task(end_to_end_result, k=3)
        assert report.accuracy_topk >= report.accuracy_top1
        assert report.instability_topk <= 1.0

    def test_rejects_k1(self, end_to_end_result):
        with pytest.raises(ValueError):
            simplify_task(end_to_end_result, k=1)


class TestRepeatShot:
    def test_demo_returns_outcome(self, tiny_model):
        out = repeat_shot_demo(model=tiny_model, seed=0, max_scenes=5)
        assert 0.0 <= out.diff.divergent_fraction <= 1.0
        assert out.diff.threshold == 0.05
        assert isinstance(out.diverged, bool)

    def test_demo_is_a_function_of_its_seed(self, tiny_model):
        runs = [
            repeat_shot_demo(model=tiny_model, seed=0, max_scenes=2)
            for _ in range(2)
        ]
        first, again = runs
        assert (first.first_confidence, first.second_confidence) == (
            again.first_confidence,
            again.second_confidence,
        )
        assert first.diff.mean_abs_diff == again.diff.mean_abs_diff
        assert np.array_equal(first.diff.mask, again.diff.mask)
