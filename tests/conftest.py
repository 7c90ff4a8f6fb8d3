"""Shared fixtures.

Tests never call :func:`repro.nn.load_pretrained` (it would train for
minutes on a cache miss); model-dependent tests use a tiny random or
briefly-trained model instead.
"""

import numpy as np
import pytest

from repro.core.records import ExperimentResult, PredictionRecord
from repro.nn.model import micro_mobilenet


def pytest_addoption(parser):
    parser.addoption(
        "--regen-golden",
        action="store_true",
        default=False,
        help="rewrite golden regression files (tests/data/) instead of comparing",
    )


@pytest.fixture
def regen_golden(request):
    """True when the run should rewrite golden files rather than assert."""
    return request.config.getoption("--regen-golden")


@pytest.fixture(scope="session")
def tiny_model():
    """An untrained MicroMobileNet (weights random but deterministic)."""
    return micro_mobilenet(num_classes=8, seed=123)


def make_record(
    environment="phone_a",
    image_id=0,
    true_label=0,
    predicted_label=0,
    confidence=0.9,
    class_name="water_bottle",
    ranking=None,
    angle=None,
    **metadata,
):
    """Concise PredictionRecord builder for metric tests."""
    if ranking is None:
        others = [c for c in range(8) if c != predicted_label]
        ranking = tuple([predicted_label] + others)
    return PredictionRecord(
        environment=environment,
        image_id=image_id,
        true_label=true_label,
        predicted_label=predicted_label,
        confidence=confidence,
        class_name=class_name,
        ranking=ranking,
        angle=angle,
        metadata=metadata,
    )


def environments(result):
    """The environments of ``result``'s records, in first-seen order."""
    return list(dict.fromkeys(r.environment for r in result))


@pytest.fixture
def record_factory():
    return make_record


@pytest.fixture
def two_env_result():
    """A small result with known stability structure.

    Images: 0 stable-correct, 1 stable-incorrect, 2 unstable,
    3 seen by one environment only (excluded from instability).
    """
    records = [
        make_record("a", 0, 1, 1, 0.9),
        make_record("b", 0, 1, 1, 0.8),
        make_record("a", 1, 1, 2, 0.7),
        make_record("b", 1, 1, 3, 0.6),
        make_record("a", 2, 1, 1, 0.55),
        make_record("b", 2, 1, 4, 0.5),
        make_record("a", 3, 1, 1, 0.95),
    ]
    return ExperimentResult(records, name="fixture")
