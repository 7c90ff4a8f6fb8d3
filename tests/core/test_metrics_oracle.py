"""The flag-based §2.2 metrics against the per-image loop reference.

Random results mix the cases the vectorized grouping has to get right:
repeat records inside one environment, images only one environment saw,
``acceptable_labels`` aliases, angles that are mixed or absent, and
``object_key``/``repeat`` metadata on some records only. Every metric
must give exactly the reference's value (same floats, same key order) or
raise ``ValueError`` where the reference does, at k = 1, 2 and 3.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.analysis import (
    confidence_analysis,
    per_angle_instability,
    within_environment_instability,
)
from repro.core.instability import (
    accuracy,
    image_flags,
    image_stability_breakdown,
    instability,
    per_class_accuracy,
    per_class_instability,
    per_environment_accuracy,
    unstable_image_ids,
)
from repro.core.records import ExperimentResult, PredictionRecord
from tests.core import reference_metrics as reference

N_CLASSES = 5
ANGLES = (None, -15.0, 0.0, 15.0)


@st.composite
def records(draw):
    """One record; image ids, environments and shots collide often."""
    true_label = draw(st.integers(0, N_CLASSES - 1))
    ranking = tuple(draw(st.permutations(range(N_CLASSES))))
    metadata = {}
    if draw(st.booleans()):
        metadata["object_key"] = draw(st.integers(0, 3))
    if draw(st.booleans()):
        metadata["repeat"] = draw(st.integers(0, 2))
    return PredictionRecord(
        environment=draw(st.sampled_from(["env_a", "env_b", "env_c"])),
        image_id=draw(st.integers(0, 6)),
        true_label=true_label,
        predicted_label=ranking[0],
        confidence=draw(st.floats(0.0, 1.0, allow_nan=False)),
        class_name=f"class{true_label % 3}",
        ranking=ranking,
        angle=draw(st.sampled_from(ANGLES)),
        metadata=metadata,
        acceptable_labels=tuple(
            draw(st.lists(st.integers(0, N_CLASSES - 1), max_size=2))
        ),
    )


def _outcome(fn, records, k):
    """The metric's value, or the ValueError it raised."""
    try:
        return fn(records, k)
    except ValueError:
        return ValueError


def _normalise(value):
    """Dict items in order, arrays as (dtype, values), floats exact."""
    if isinstance(value, dict):
        return [(key, _normalise(v)) for key, v in value.items()]
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.tolist())
    return value


METRICS = [
    ("accuracy", accuracy),
    ("instability", instability),
    ("unstable_image_ids", unstable_image_ids),
    ("image_stability_breakdown", image_stability_breakdown),
    ("per_class_instability", per_class_instability),
    ("per_class_accuracy", per_class_accuracy),
    ("per_environment_accuracy", per_environment_accuracy),
    ("per_angle_instability", per_angle_instability),
    ("within_environment_instability", within_environment_instability),
    ("confidence_analysis", lambda result, k: vars(confidence_analysis(result, k))),
]


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("name,metric", METRICS, ids=[m[0] for m in METRICS])
@given(st.lists(records(), max_size=24))
@settings(max_examples=60, deadline=None)
def test_metric_matches_loop_reference(k, name, metric, recs):
    expected = _outcome(getattr(reference, name), recs, k)
    actual = _outcome(metric, ExperimentResult(recs), k)
    assert _normalise(actual) == _normalise(expected)


def test_strategy_reaches_every_case():
    """The generator covers the cases the module docstring names."""
    seen = set()

    @given(st.lists(records(), min_size=2, max_size=24))
    @settings(max_examples=200, deadline=None)
    def probe(recs):
        result = ExperimentResult(recs)
        flags = image_flags(result)
        if len({(r.environment, r.image_id) for r in recs}) < len(recs):
            seen.add("repeat_in_one_environment")
        if (~flags.eligible).any():
            seen.add("single_environment_image")
        if flags.unstable.any():
            seen.add("unstable_image")
        if any(r.acceptable_labels for r in recs):
            seen.add("aliases")
        if {r.angle is None for r in recs} == {True, False}:
            seen.add("mixed_angles")
        if any("object_key" in r.metadata for r in recs):
            seen.add("object_key")

    probe()
    assert seen == {
        "repeat_in_one_environment",
        "single_environment_image",
        "unstable_image",
        "aliases",
        "mixed_angles",
        "object_key",
    }
