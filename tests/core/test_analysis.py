"""Tests for the secondary analyses (angle, within-env, confidence)."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.analysis import (
    confidence_analysis,
    per_angle_instability,
    within_environment_instability,
)
from repro.core.records import ExperimentResult
from tests.conftest import make_record


class TestPerAngle:
    def test_split_by_angle(self):
        records = [
            # angle 0: unstable
            make_record("a", 0, 1, 1, angle=0.0),
            make_record("b", 0, 1, 2, angle=0.0),
            # angle 15: stable
            make_record("a", 1, 1, 1, angle=15.0),
            make_record("b", 1, 1, 1, angle=15.0),
        ]
        out = per_angle_instability(ExperimentResult(records))
        assert out[0.0] == 1.0
        assert out[15.0] == 0.0

    def test_requires_angles(self):
        records = [make_record("a", 0), make_record("b", 0)]
        with pytest.raises(ValueError):
            per_angle_instability(ExperimentResult(records))


class TestWithinEnvironment:
    def test_repeat_flips_within_one_phone(self):
        # Same phone, same object, two angles: one correct, one not.
        records = [
            make_record("a", 0, 1, 1, angle=0.0, object_key=7),
            make_record("a", 1, 1, 2, angle=15.0, object_key=7),
            make_record("b", 2, 1, 1, angle=0.0, object_key=7),
            make_record("b", 3, 1, 1, angle=15.0, object_key=7),
        ]
        out = within_environment_instability(ExperimentResult(records))
        assert out["a"] == 1.0
        assert out["b"] == 0.0

    def test_acceptable_labels_count_as_correct(self):
        # Label 2 is an accepted alias of label 1, so both shots are right.
        records = [
            make_record("a", 0, 1, 1, angle=0.0, object_key=7),
            make_record("a", 1, 1, 2, angle=15.0, object_key=7),
        ]
        assert within_environment_instability(ExperimentResult(records))["a"] == 1.0
        aliased = [replace(r, acceptable_labels=(2,)) for r in records]
        assert within_environment_instability(ExperimentResult(aliased))["a"] == 0.0


class TestConfidenceAnalysis:
    def test_groups_are_partitioned(self, two_env_result):
        split = confidence_analysis(two_env_result)
        total = (
            split.stable_correct.size
            + split.stable_incorrect.size
            + split.unstable_correct.size
            + split.unstable_incorrect.size
        )
        # Image 3 (single-env) is excluded.
        assert total == 6

    def test_unstable_sides(self, two_env_result):
        split = confidence_analysis(two_env_result)
        # Image 2: correct side has conf 0.55, incorrect 0.5.
        assert split.unstable_correct.tolist() == [pytest.approx(0.55)]
        assert split.unstable_incorrect.tolist() == [pytest.approx(0.5)]

    def test_summary_handles_empty_groups(self):
        records = [
            make_record("a", 0, 1, 1, 0.9),
            make_record("b", 0, 1, 1, 0.8),
        ]
        split = confidence_analysis(ExperimentResult(records))
        summary = split.summary()
        assert summary["stable_correct"][0] == pytest.approx(0.85)
        assert np.isnan(summary["unstable_correct"][0])
