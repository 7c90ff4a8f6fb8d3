"""Tests for prediction records and result containers."""

import pytest

from repro.core.records import ExperimentResult, PredictionRecord
from tests.conftest import make_record


class TestPredictionRecord:
    def test_top1_correct(self):
        r = make_record(true_label=2, predicted_label=2)
        assert r.is_correct()
        assert r.is_correct(k=1)

    def test_top1_incorrect(self):
        r = make_record(true_label=2, predicted_label=3)
        assert not r.is_correct()

    def test_topk_correct_beyond_top1(self):
        r = make_record(true_label=5, predicted_label=3, ranking=(3, 5, 0, 1, 2, 4, 6, 7))
        assert not r.is_correct(k=1)
        assert r.is_correct(k=2)
        assert r.is_correct(k=8)

    def test_topk_rejects_nonpositive_k(self):
        with pytest.raises(ValueError):
            make_record().is_correct(k=0)

    def test_topk_requires_ranking(self):
        r = PredictionRecord(
            environment="a",
            image_id=0,
            true_label=0,
            predicted_label=0,
            confidence=0.5,
            class_name="x",
            ranking=(),
        )
        with pytest.raises(ValueError):
            r.is_correct(k=3)


class TestExperimentResult:
    def test_extend(self):
        result = ExperimentResult([])
        result.extend([make_record(), make_record()])
        assert len(result) == 2
