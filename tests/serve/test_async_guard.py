"""The event-loop guard in ``conftest.py`` sees the defects it exists for.

Each scenario runs inside its own :func:`asyncio_warnings` block, so its
records never reach the autouse guard of the test running it; the check
is then called as a plain function on what the block collected.
"""

import asyncio
import gc
import time

import pytest

from .conftest import asyncio_warnings, check_loop_records, run_scenario


async def blocks_the_loop():
    time.sleep(0.2)


async def drops_a_failed_task():
    async def fail():
        raise RuntimeError("nobody reads this")

    task = asyncio.get_running_loop().create_task(fail())
    await asyncio.sleep(0)
    assert task.done()


async def drops_a_pending_task():
    loop = asyncio.get_running_loop()

    async def wait_forever():
        await loop.create_future()

    loop.create_task(wait_forever())
    await asyncio.sleep(0)
    gc.collect()


async def clean():
    await asyncio.sleep(0.01)


def records_of(main):
    with asyncio_warnings() as records:
        run_scenario(main())
    return records


@pytest.mark.parametrize(
    "main, message",
    [
        (blocks_the_loop, r"Executing <Task .*> took 0\.2"),
        (drops_a_failed_task, "Task exception was never retrieved"),
        (drops_a_pending_task, "Task was destroyed but it is pending"),
    ],
    ids=["blocking-sleep", "unretrieved-exception", "destroyed-pending"],
)
def test_defect_trips_the_check(main, message):
    with pytest.raises(AssertionError, match=message):
        check_loop_records(records_of(main))


def test_clean_scenario_passes():
    check_loop_records(records_of(clean))


def test_scenario_collects_its_own_garbage_and_unfreezes():
    seen = {}

    async def probe():
        seen["enabled"] = gc.isenabled()
        seen["frozen"] = gc.get_freeze_count()

    run_scenario(probe())
    assert seen["enabled"]
    assert seen["frozen"] > 0  # the heap from before the scenario
    assert gc.get_freeze_count() == 0
