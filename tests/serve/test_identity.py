"""The serving determinism invariant: drained service == serial runner.

A response must be a pure function of its request coordinates — the
queue, the batcher, coalescing, batch sizing, and the worker pool are
all throughput machinery that cannot change a single bit of any answer.
The service runs every capture through the executor's fused group pass,
while ``serial_reference`` runs one ``execute_unit`` per request, so
these tests also pin fused == per-unit at the serving layer.
"""

from repro import obs
from repro.serve.service import CaptureRequest, IngestService

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


def serial_fields(service, schedule):
    return {
        r.request_id: r.deterministic_fields()
        for r in service.serial_reference(schedule)
    }


SCHEDULE = build_schedule(count=24, devices=4, scenes=2, seed=11, repeats=2)

# repeats=3 gives every (device, scene) pair repeats to fuse, and 24
# draws over 24 coordinates repeat some of them, which coalesce.
REPEATS_SCHEDULE = build_schedule(
    count=24, devices=4, scenes=2, seed=13, repeats=3
)


class TestBitIdentity:
    def test_drained_service_matches_serial_reference(self):
        config = make_config(batch_max=16, queue_capacity=64)
        service, responses = drive(config, SCHEDULE)
        assert all(r.status == "ok" for r in responses.values())
        assert fields(responses) == serial_fields(service, SCHEDULE)

    def test_coalesced_repeats_match_serial_reference(self):
        # batch_max=32: every request lands in one coalesced batch.
        service, responses = drive(make_config(batch_max=32), REPEATS_SCHEDULE)
        assert all(r.status == "ok" for r in responses.values())
        distinct = {(p.device, p.scene, p.repeat) for p in REPEATS_SCHEDULE}
        coalesced = service.accounting()["coalesced"]
        assert coalesced == len(REPEATS_SCHEDULE) - len(distinct) > 0
        assert fields(responses) == serial_fields(service, REPEATS_SCHEDULE)

    def test_batch_composition_cannot_change_responses(self):
        # batch_max=1 (no coalescing, one unit per batch) versus
        # batch_max=32 (whole run in one coalesced batch): identical.
        _, singles = drive(make_config(batch_max=1), SCHEDULE)
        _, batched = drive(make_config(batch_max=32), SCHEDULE)
        assert fields(singles) == fields(batched)

    def test_worker_pool_cannot_change_responses(self):
        _, serial = drive(make_config(workers=0), SCHEDULE)
        _, pooled = drive(make_config(workers=2), SCHEDULE)
        assert fields(serial) == fields(pooled)

    def test_request_order_cannot_change_responses(self):
        reordered = list(reversed(SCHEDULE))
        _, forward = drive(make_config(), SCHEDULE)
        _, backward = drive(make_config(), reordered)
        assert fields(forward) == fields(backward)


class TestFusedServingCounters:
    def test_jpeg_devices_are_served_without_a_decode(self):
        """The fused JPEG roundtrip parses no bytes, so a served run over
        JPEG-saving devices reports encodes but no ``codec.bytes_decoded``."""
        service = IngestService(make_config(fleet_size=6))
        jpeg = [
            i for i, d in enumerate(service.devices) if d.profile.save_format == "jpeg"
        ]
        assert jpeg
        schedule = [
            CaptureRequest(k, device, k % 2, k % 3)
            for k, device in enumerate(jpeg * 2)
        ]

        async def scenario():
            await service.start()
            responses = await drive_inproc(service, schedule)
            accounting = await service.drain()
            return responses, accounting

        with obs.observed() as ob:
            responses, accounting = run_scenario(scenario())
        assert accounting["balanced"]
        assert all(r.status == "ok" for r in responses.values())
        counters = ob.metrics.snapshot()["counters"]
        assert counters["codec.encoded.jpeg"] == len(schedule) - accounting["coalesced"]
        assert "codec.bytes_decoded" not in counters
