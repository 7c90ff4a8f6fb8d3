"""Shared helpers for the serving tests.

Everything runs on the ``untrained`` seed-1 model (instant start; the
bit-identity invariants don't care about weights) and tiny fleets, so
the whole suite stays in tier-1 time budgets. Async tests drive the
event loop explicitly with ``asyncio.run`` — no async test plugin.
"""

import pytest

from repro.serve.service import IngestService, ServeConfig


def make_config(**overrides) -> ServeConfig:
    defaults = dict(
        fleet_size=4,
        scenes=2,
        seed=0,
        queue_capacity=64,
        batch_max=8,
        request_timeout_s=30.0,
        workers=0,
        window_s=0.0,
        model="untrained",
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


@pytest.fixture(scope="session")
def shared_service():
    """One read-only service for tests that never start it."""
    return IngestService(make_config())
