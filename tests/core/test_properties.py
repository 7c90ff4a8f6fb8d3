"""Property-based tests for the metric layer's invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.instability import (
    accuracy,
    image_stability_breakdown,
    instability,
    unstable_image_ids,
)
from repro.core.records import ExperimentResult, PredictionRecord

N_CLASSES = 5


@st.composite
def results(draw, min_images=1, max_images=12, min_envs=2, max_envs=4):
    """Random experiment results with full rankings and 5 classes."""
    n_images = draw(st.integers(min_images, max_images))
    n_envs = draw(st.integers(min_envs, max_envs))
    records = []
    for image_id in range(n_images):
        true_label = draw(st.integers(0, N_CLASSES - 1))
        for env in range(n_envs):
            perm = draw(st.permutations(list(range(N_CLASSES))))
            records.append(
                PredictionRecord(
                    environment=f"env{env}",
                    image_id=image_id,
                    true_label=true_label,
                    predicted_label=perm[0],
                    confidence=draw(
                        st.floats(0.25, 1.0, allow_nan=False)
                    ),
                    class_name=f"class{true_label}",
                    ranking=tuple(perm),
                )
            )
    return ExperimentResult(records)


def _eligible_ids(result):
    """Sorted ids of the images two or more environments saw."""
    environments = {}
    for r in result:
        environments.setdefault(r.image_id, set()).add(r.environment)
    return sorted(i for i, envs in environments.items() if len(envs) >= 2)


@given(results())
@settings(max_examples=60, deadline=None)
def test_breakdown_partitions_eligible_images(result):
    breakdown = image_stability_breakdown(result)
    all_ids = sorted(
        breakdown["stable_correct"]
        + breakdown["stable_incorrect"]
        + breakdown["unstable"]
    )
    assert all_ids == _eligible_ids(result)
    # No id in two groups.
    assert len(all_ids) == len(set(all_ids))


@given(results())
@settings(max_examples=60, deadline=None)
def test_instability_consistent_with_unstable_ids(result):
    assert instability(result) == pytest.approx(
        len(unstable_image_ids(result)) / len(_eligible_ids(result))
    )


@given(results(), st.randoms())
@settings(max_examples=40, deadline=None)
def test_instability_invariant_under_record_order(result, rnd):
    shuffled = list(result.records)
    rnd.shuffle(shuffled)
    assert instability(ExperimentResult(shuffled)) == instability(result)


@given(results())
@settings(max_examples=40, deadline=None)
def test_duplicating_an_environment_changes_nothing(result):
    """A clone device that predicts identically adds no instability."""
    env = result.records[0].environment
    clones = [
        PredictionRecord(
            environment="clone-of-" + env,
            image_id=r.image_id,
            true_label=r.true_label,
            predicted_label=r.predicted_label,
            confidence=r.confidence,
            class_name=r.class_name,
            ranking=r.ranking,
        )
        for r in result
        if r.environment == env
    ]
    extended = ExperimentResult(result.records + clones)
    assert instability(extended) == instability(result)


@given(results())
@settings(max_examples=40, deadline=None)
def test_accuracy_monotone_in_k(result):
    values = [accuracy(result, k=k) for k in range(1, N_CLASSES + 1)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert values[-1] == 1.0  # true label is always somewhere in the ranking


@given(results())
@settings(max_examples=40, deadline=None)
def test_instability_bounded(result):
    value = instability(result)
    assert 0.0 <= value <= 1.0


@given(results())
@settings(max_examples=40, deadline=None)
def test_perfect_fleet_is_stable(result):
    """If every record is forced correct, instability is exactly zero."""
    fixed = [
        PredictionRecord(
            environment=r.environment,
            image_id=r.image_id,
            true_label=r.true_label,
            predicted_label=r.true_label,
            confidence=r.confidence,
            class_name=r.class_name,
            ranking=(r.true_label,)
            + tuple(c for c in range(N_CLASSES) if c != r.true_label),
        )
        for r in result.records
    ]
    assert instability(ExperimentResult(fixed)) == 0.0
