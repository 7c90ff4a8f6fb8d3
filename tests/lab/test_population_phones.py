"""generate_fleet() populations drop into the lab experiments.

ROADMAP follow-up to the fleet package: the synthetic populations sample
real ``DeviceProfile`` objects, so ``phones=generate_fleet(n, seed)``
photographs on a seeded synthetic population.
"""

import pytest

from repro.fleet.population import generate_fleet
from repro.lab import EndToEndExperiment
from repro.lab.experiments import RawVsJpegExperiment
from tests.conftest import environments


class TestFleetSizeWiring:
    def test_explicit_population_photographs(self, tiny_model):
        population = generate_fleet(5, seed=3)
        experiment = EndToEndExperiment(
            phones=population, model=tiny_model, angles=(0.0,), seed=3
        )
        assert [p.name for p in experiment.profiles] == [p.name for p in population]
        result = experiment.run(per_class=1)
        assert environments(result) == [p.name for p in population]
        assert len(result) == 5 * 5

    def test_default_is_paper_fleet(self, tiny_model):
        from repro.devices import capture_fleet

        experiment = EndToEndExperiment(model=tiny_model)
        assert [p.name for p in experiment.profiles] == [
            p.name for p in capture_fleet()
        ]

    def test_raw_vs_jpeg_accepts_population(self, tiny_model):
        population = generate_fleet(12, seed=1)
        raw_capable = [p for p in population if p.supports_raw]
        if not raw_capable:
            with pytest.raises(ValueError):
                RawVsJpegExperiment(model=tiny_model, seed=1, phones=population)
            return
        experiment = RawVsJpegExperiment(model=tiny_model, seed=1, phones=population)
        assert [p.name for p in experiment.profiles] == [
            p.name for p in raw_capable
        ]
