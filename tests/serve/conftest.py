"""Shared helpers for the serving tests.

Everything runs on the ``untrained`` seed-1 model (instant start; the
bit-identity invariants don't care about weights) and tiny fleets, so
the whole suite stays in tier-1 time budgets. Async tests drive the
event loop explicitly with :func:`run_scenario` — no async test plugin.

Every test here runs under an event-loop guard:

* :func:`run_scenario` runs a coroutine in asyncio's debug mode, which
  logs any loop step longer than :data:`SLOW_CALLBACK_S`, with the heap
  from earlier tests frozen so collections stay scenario-sized;
* the autouse :func:`asyncio_guard` fails the test if the ``asyncio``
  logger recorded a WARNING or worse — a slow step, a pending task
  destroyed, an exception never retrieved;
* the autouse :func:`watchdog` dumps every thread's stack and exits
  when a test outlives :data:`WATCHDOG_S`, because a blocked loop never
  reaches ``asyncio.wait_for``'s timeout.

Build each :class:`IngestService` before calling
:func:`run_scenario`: construction generates the fleet and presents the
scenes, which is synchronous setup work, not a loop step.
"""

import asyncio
import contextlib
import faulthandler
import gc
import logging
import os

import pytest

from repro.runner.seeds import derive_rng
from repro.serve.service import CaptureRequest, IngestService, ServeConfig

#: A loop step longer than this stalls every in-flight request. The
#: clean suite's longest step is well under half of it.
SLOW_CALLBACK_S = 0.05

#: In-loop timeout of one scenario (catches a lost wake-up).
SCENARIO_TIMEOUT_S = 120

#: Wall time after which a test is taken to have hung the process.
WATCHDOG_S = 60


def make_config(**overrides) -> ServeConfig:
    defaults = dict(
        fleet_size=4,
        scenes=2,
        seed=0,
        queue_capacity=64,
        batch_max=8,
        request_timeout_s=30.0,
        workers=0,
        model="untrained",
    )
    defaults.update(overrides)
    return ServeConfig(**defaults)


def build_schedule(count, devices, scenes, seed, repeats):
    """``count`` requests with uniform seeded coordinates.

    Device, scene and repeat are drawn in that order, per request, from
    the ``derive_rng(seed, "loadgen.coords")`` stream.
    """
    coords = derive_rng(seed, "loadgen.coords")
    return [
        CaptureRequest(
            request_id=request_id,
            device=int(coords.integers(0, devices)),
            scene=int(coords.integers(0, scenes)),
            repeat=int(coords.integers(0, repeats)),
        )
        for request_id in range(count)
    ]


async def drive_inproc(service, requests):
    """Submit every request at once and gather the answers.

    The service must already be started; the caller drains it. Returns
    ``{request_id: CaptureResponse}``.
    """
    responses = await asyncio.gather(*(service.submit(r) for r in requests))
    return {r.request_id: r for r in responses}


def run_scenario(main):
    """Run coroutine ``main`` to completion on a debug-mode event loop.

    The heap that earlier tests left behind is collected and frozen for
    the scenario, so an automatic collection inside it walks only the
    scenario's own objects: late in a full run, a full collection of the
    whole heap alone took 73-342 ms, past :data:`SLOW_CALLBACK_S`.
    Automatic collection stays on, so pauses the service's own
    allocations cause are still timed.
    """

    async def guarded():
        asyncio.get_running_loop().slow_callback_duration = SLOW_CALLBACK_S
        return await asyncio.wait_for(main, SCENARIO_TIMEOUT_S)

    gc.collect()
    gc.freeze()
    try:
        return asyncio.run(guarded(), debug=True)
    finally:
        gc.unfreeze()


class _Collector(logging.Handler):
    def __init__(self) -> None:
        super().__init__(logging.WARNING)
        self.records = []

    def emit(self, record: logging.LogRecord) -> None:
        self.records.append(record)


@contextlib.contextmanager
def asyncio_warnings():
    """Collect the ``asyncio`` logger's WARNING-or-worse records.

    Yields the list the records land in. A ``gc.collect()`` runs before
    the block closes, so a pending task that was dropped is reported
    inside it. Nested blocks capture separately: a record goes to the
    innermost block only.
    """
    logger = logging.getLogger("asyncio")
    outer = [h for h in logger.handlers if isinstance(h, _Collector)]
    collector = _Collector()
    for handler in outer:
        logger.removeHandler(handler)
    logger.addHandler(collector)
    try:
        yield collector.records
        gc.collect()
    finally:
        logger.removeHandler(collector)
        for handler in outer:
            logger.addHandler(handler)


def check_loop_records(records) -> None:
    """Raise ``AssertionError`` naming every record, if there are any."""
    assert not records, "asyncio reported a loop defect:\n" + "\n".join(
        f"  {record.levelname}: {record.getMessage()}" for record in records
    )


@pytest.fixture(autouse=True)
def asyncio_guard():
    with asyncio_warnings() as records:
        yield
    check_loop_records(records)


@pytest.fixture(autouse=True)
def watchdog(request):
    # The per-test capture file vanishes with the process, so point the
    # dump at the terminal's stderr.
    capture = request.config.pluginmanager.getplugin("capturemanager")
    with capture.global_and_fixture_disabled() if capture else contextlib.nullcontext():
        stderr = os.dup(2)
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True, file=stderr)
    yield
    faulthandler.cancel_dump_traceback_later()
    os.close(stderr)


@pytest.fixture(scope="session")
def shared_service():
    """One read-only service for tests that never start it."""
    return IngestService(make_config())
