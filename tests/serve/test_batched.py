"""Fused serving over repeat-heavy traffic stays bit-identical.

Every coalesced executor batch runs through the fused same-(phone,
scene) group pass. On a schedule where every (device, scene) pair has
repeats to fuse, neither the worker pool nor the arrival order may
change a single deterministic response field.
"""

from repro.serve.service import IngestService

from .conftest import build_schedule, drive_inproc, make_config, run_scenario


def drive(config, schedule):
    service = IngestService(config)

    async def scenario():
        await service.start()
        responses = await drive_inproc(service, schedule)
        await service.drain()
        return responses

    return service, run_scenario(scenario())


def fields(responses):
    return {
        rid: response.deterministic_fields() for rid, response in responses.items()
    }


# repeats=3 gives every (device, scene) pair repeats to fuse.
SCHEDULE = build_schedule(count=24, devices=4, scenes=2, seed=13, repeats=3)


class TestBatchedServing:
    def test_batched_with_worker_pool(self):
        _, serial = drive(make_config(workers=0), SCHEDULE)
        _, pooled = drive(make_config(workers=2), SCHEDULE)
        assert all(r.status == "ok" for r in serial.values())
        assert fields(serial) == fields(pooled)

    def test_batched_request_order(self):
        reordered = list(reversed(SCHEDULE))
        _, forward = drive(make_config(), SCHEDULE)
        _, backward = drive(make_config(), reordered)
        assert fields(forward) == fields(backward)
