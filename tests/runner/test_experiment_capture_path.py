"""Fig. 1 and the stability corpus photograph through the fleet executor.

Both callers run with ``Phone.photograph`` patched to raise, so a
capture taken outside :class:`FleetExecutor` fails the test. Every
executor run is recorded, and the last payload of each caller must equal
:func:`execute_unit` of its unit. That check runs after the patch is
undone, because the per-unit reference path itself calls
``Phone.photograph``.
"""

import pytest

from repro.devices.phone import Phone
from repro.lab import repeat_shot_demo
from repro.mitigation import build_stability_corpus
from repro.runner.executor import FleetExecutor
from repro.runner.units import execute_unit
from tests.runner.test_golden_captures import payload_digest

CALLERS = {
    "repeat_shot_demo": lambda model: repeat_shot_demo(
        model=model, seed=0, max_scenes=2
    ),
    "build_stability_corpus": lambda model: build_stability_corpus(
        per_class=1, angles=(0.0,), seed=0
    ),
}


def _forbidden(*args, **kwargs):
    raise AssertionError("Phone.photograph called outside the fleet executor")


@pytest.mark.parametrize("caller", sorted(CALLERS))
def test_captures_run_through_the_executor(caller, tiny_model, monkeypatch):
    runs = []
    run = FleetExecutor.run

    def recording_run(self, units):
        payloads = run(self, units)
        runs.append((list(units), payloads))
        return payloads

    with monkeypatch.context() as patch:
        patch.setattr(FleetExecutor, "run", recording_run)
        patch.setattr(Phone, "photograph", _forbidden)
        CALLERS[caller](tiny_model)

    assert runs, f"{caller} never ran the fleet executor"
    units, payloads = runs[-1]
    assert {unit.kind for unit in units} == {"photograph"}
    assert payload_digest(payloads[-1]) == payload_digest(execute_unit(units[-1]))
