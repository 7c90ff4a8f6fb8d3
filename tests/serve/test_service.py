"""Service-path invariants: shedding, drain, timeouts, stalls.

Bounded queues shed under overload without deadlock, graceful drain
answers or accounts for every accepted request, and a stalled executor
sheds and times out queued work without unbalancing the accounting.
Admission refusals name their reason, batches never exceed
``batch_max``, coalescing stays within one batch, and every event lands
in the service's one metrics registry.
"""

import asyncio
import dataclasses
import importlib.util
import threading

import pytest

import repro.serve
from repro.__main__ import build_parser
from repro.scenes.objects import ALL_CLASSES
from repro.serve.service import (
    STATUSES,
    CaptureRequest,
    CaptureResponse,
    IngestService,
    ServeConfig,
)

from .conftest import make_config, run_scenario


def gate_executor(service, loop):
    """Block the service's first batch until the returned event is set.

    Returns ``(entered, release, sizes)``: ``entered`` resolves once the
    first batch is in the executor, and ``sizes`` records the unique
    unit count of every batch executed.
    """
    entered = loop.create_future()
    release = threading.Event()
    sizes = []
    execute = service._execute

    def gated(units):
        sizes.append(len(units))
        if len(sizes) == 1:
            loop.call_soon_threadsafe(entered.set_result, None)
            release.wait()
        return execute(units)

    service._execute = gated
    return entered, release, sizes


def submit_all(service, requests):
    """Submit every request to an unstarted service; return the answers."""

    async def scenario():
        return await asyncio.gather(*[service.submit(r) for r in requests])

    return run_scenario(scenario())


class TestAdmission:
    def test_overload_sheds_exactly_beyond_capacity(self):
        service = IngestService(make_config(queue_capacity=5))

        async def scenario():
            await service.start()
            # Synchronous submits with no await in between: the batcher
            # never gets scheduled, so the queue fills deterministically.
            futures = [
                service.submit(CaptureRequest(i, device=i % 4, scene=0))
                for i in range(12)
            ]
            responses = await asyncio.gather(*futures)
            await service.drain()
            return responses

        responses = run_scenario(scenario())
        statuses = [r.status for r in responses]
        assert statuses.count("shed") == 12 - 5
        assert statuses.count("ok") == 5
        # Shed responses resolve immediately with a reason.
        shed = next(r for r in responses if r.status == "shed")
        assert "queue full" in shed.detail
        accounting = service.accounting()
        assert accounting["shed"] == 7
        assert accounting["accepted"] == 5
        assert accounting["balanced"]

    def test_invalid_coordinates_rejected_without_acceptance(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            bad = [
                CaptureRequest(0, device=99, scene=0),
                CaptureRequest(1, device=0, scene=99),
                CaptureRequest(2, device=0, scene=0, repeat=-1),
            ]
            responses = await asyncio.gather(*[service.submit(r) for r in bad])
            await service.drain()
            return responses

        responses = run_scenario(scenario())
        assert [r.status for r in responses] == ["invalid"] * 3
        accounting = service.accounting()
        assert accounting["invalid"] == 3
        assert accounting["accepted"] == 0
        assert accounting["balanced"]

    def test_submit_after_drain_rejected_as_draining(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            await service.drain()
            return await service.submit(CaptureRequest(0, 0, 0))

        response = run_scenario(scenario())
        assert response.status == "draining"
        assert service.accounting()["rejected_draining"] == 1


class TestDrain:
    def test_drain_answers_every_accepted_request(self):
        service = IngestService(make_config(batch_max=100))

        async def scenario():
            await service.start()
            futures = [
                service.submit(CaptureRequest(i, device=i % 4, scene=i % 2))
                for i in range(10)
            ]
            # Drain immediately — the batcher hasn't run yet, so
            # everything is still queued; drain must flush it anyway.
            accounting = await service.drain()
            responses = await asyncio.gather(*futures)
            return accounting, responses

        accounting, responses = run_scenario(scenario())
        assert all(r.status == "ok" for r in responses)
        assert accounting["accepted"] == 10
        assert accounting["completed"] == 10
        assert accounting["pending"] == 0
        assert accounting["balanced"]

    def test_drain_is_idempotent(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            await asyncio.gather(*[
                service.submit(CaptureRequest(i, 0, 0)) for i in range(3)
            ])
            first = await service.drain()
            second = await service.drain()
            return first, second

        first, second = run_scenario(scenario())
        assert first == second

    def test_expired_requests_answer_timeout_and_stay_accounted(self):
        service = IngestService(make_config(request_timeout_s=0.0))

        async def scenario():
            await service.start()
            futures = [
                service.submit(CaptureRequest(i, 0, 0)) for i in range(4)
            ]
            responses = await asyncio.gather(*futures)
            accounting = await service.drain()
            return accounting, responses

        accounting, responses = run_scenario(scenario())
        assert [r.status for r in responses] == ["timeout"] * 4
        assert accounting["timed_out"] == 4
        assert accounting["completed"] == 0
        assert accounting["balanced"]


class TestCoalescing:
    def test_duplicate_coordinates_coalesce_to_one_execution(self):
        service = IngestService(make_config(batch_max=16))

        async def scenario():
            await service.start()
            futures = [
                service.submit(CaptureRequest(i, device=1, scene=1)) for i in range(6)
            ]
            responses = await asyncio.gather(*futures)
            await service.drain()
            return responses

        responses = run_scenario(scenario())
        assert all(r.status == "ok" for r in responses)
        # All six shared one (device, scene, repeat): identical payloads.
        assert len({r.pixels_sha256 for r in responses}) == 1
        counters = service.stats()["counters"]
        assert counters["serve.coalesced"] == 5.0
        assert counters["serve.completed"] == 6.0


class TestWorkConservation:
    def test_lone_request_dispatches_without_waiting(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            await asyncio.sleep(0)  # the batcher parks on the empty queue
            future = service.submit(CaptureRequest(0, 0, 0))
            for _ in range(3):
                await asyncio.sleep(0)
            batches = service.stats()["counters"].get("serve.batches", 0)
            response = await future
            await service.drain()
            return batches, response

        batches, response = run_scenario(scenario())
        assert batches == 1
        assert response.status == "ok"

    def test_backlog_forms_the_next_batch_and_still_coalesces(self):
        service = IngestService(make_config())

        async def scenario():
            loop = asyncio.get_running_loop()
            entered, release, sizes = gate_executor(service, loop)
            await service.start()
            try:
                first = service.submit(CaptureRequest(0, device=0, scene=0))
                await entered
                backlog = [
                    service.submit(CaptureRequest(1, device=1, scene=0)),
                    service.submit(CaptureRequest(2, device=1, scene=0)),
                    service.submit(CaptureRequest(3, device=2, scene=1)),
                ]
            finally:
                release.set()
            responses = await asyncio.gather(first, *backlog)
            await service.drain()
            return sizes, responses

        sizes, responses = run_scenario(scenario())
        assert all(r.status == "ok" for r in responses)
        assert sizes == [1, 2]
        assert service.stats()["counters"]["serve.coalesced"] == 1.0


class TestExecutorFailure:
    def test_failed_batch_answers_error_and_batcher_survives(self, monkeypatch):
        execute = IngestService._execute
        calls = []

        def failing_once(self, units):
            calls.append(len(units))
            if len(calls) == 1:
                raise RuntimeError("executor thread died")
            return execute(self, units)

        monkeypatch.setattr(IngestService, "_execute", failing_once)

        service = IngestService(make_config())

        async def scenario():
            await service.start()
            failed = await asyncio.gather(*[
                service.submit(CaptureRequest(i, device=i, scene=0)) for i in range(3)
            ])
            errors = service.stats()["counters"]["serve.errors"]
            later = await service.submit(CaptureRequest(3, device=0, scene=1))
            accounting = await service.drain()
            return failed, errors, later, accounting

        failed, errors, later, accounting = run_scenario(scenario())
        assert [r.status for r in failed] == ["error"] * 3
        assert all("RuntimeError" in r.detail for r in failed)
        assert errors == len(failed)
        assert later.status == "ok"
        assert accounting["balanced"]


class TestStalledExecutor:
    def test_stalled_executor_sheds_then_times_out_and_balances(self, monkeypatch):
        execute = IngestService._execute
        entered = threading.Event()
        release = threading.Event()

        def stalled(self, units):
            entered.set()
            release.wait()
            return execute(self, units)

        monkeypatch.setattr(IngestService, "_execute", stalled)
        service = IngestService(
            make_config(queue_capacity=3, request_timeout_s=0.1)
        )

        async def scenario():
            await service.start()
            try:
                first = service.submit(CaptureRequest(0, device=0, scene=0))
                await asyncio.to_thread(entered.wait, 10)
                # The batcher is parked on the stalled batch: the queue
                # fills to capacity and everything beyond it sheds.
                queued = [
                    service.submit(CaptureRequest(i, device=i % 4, scene=1))
                    for i in range(1, 6)
                ]
                shed = [f.result().status for f in queued if f.done()]
                await asyncio.sleep(0.2)  # outlive request_timeout_s
                waiting = sum(not f.done() for f in queued)
            finally:
                release.set()
            responses = await asyncio.gather(first, *queued)
            accounting = await service.drain()
            return shed, waiting, responses, accounting

        shed, waiting, responses, accounting = run_scenario(scenario())
        assert shed == ["shed", "shed"]
        # Expired requests are answered only when their batch is
        # assembled, after the stalled one finishes.
        assert waiting == 3
        assert [r.status for r in responses] == ["ok"] + ["timeout"] * 3 + ["shed"] * 2
        assert accounting["accepted"] == 4
        assert accounting["shed"] == 2
        assert accounting["accepted"] == (
            accounting["completed"] + accounting["timed_out"] + accounting["errors"]
        )
        assert (accounting["completed"], accounting["timed_out"]) == (1, 3)
        assert accounting["balanced"] is True


class TestInvalidCoordinates:
    @pytest.mark.parametrize(
        "request_, detail",
        [
            (CaptureRequest(0, device=-1, scene=0), "device -1 outside fleet of 4"),
            (CaptureRequest(0, device=4, scene=0), "device 4 outside fleet of 4"),
            (CaptureRequest(0, device=0, scene=-1), "scene -1 outside 2 scenes"),
            (CaptureRequest(0, device=0, scene=2), "scene 2 outside 2 scenes"),
            (CaptureRequest(0, device=0, scene=0, repeat=-1), "negative repeat -1"),
        ],
    )
    def test_detail_names_the_bad_coordinate(self, request_, detail):
        service = IngestService(make_config())
        [response] = submit_all(service, [request_])
        assert (response.status, response.detail) == ("invalid", detail)
        assert service.accounting()["invalid"] == 1

    def test_invalid_is_reported_before_draining(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            await service.drain()
            return await service.submit(CaptureRequest(0, device=9, scene=0))

        response = run_scenario(scenario())
        assert response.status == "invalid"
        accounting = service.accounting()
        assert (accounting["invalid"], accounting["rejected_draining"]) == (1, 0)

    @pytest.mark.parametrize(
        "request_",
        [
            CaptureRequest(0, device=0, scene=0),
            CaptureRequest(0, device=3, scene=1),
            CaptureRequest(0, device=0, scene=0, repeat=1000),
        ],
        ids=["first", "last", "high-repeat"],
    )
    def test_edge_coordinates_are_served(self, request_):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            response = await service.submit(request_)
            await service.drain()
            return response

        assert run_scenario(scenario()).status == "ok"


class TestLifecycle:
    def test_submit_before_start_is_refused_as_draining(self):
        service = IngestService(make_config())
        [response] = submit_all(service, [CaptureRequest(0, 0, 0)])
        assert response.status == "draining"
        assert service.accounting()["accepted"] == 0

    def test_start_twice_raises(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            try:
                with pytest.raises(RuntimeError, match="already started"):
                    await service.start()
            finally:
                await service.drain()

        run_scenario(scenario())

    def test_drain_without_start_reports_an_empty_balanced_account(self):
        service = IngestService(make_config())
        accounting = run_scenario(service.drain())
        assert accounting["balanced"] is True
        assert all(
            value == 0 for key, value in accounting.items() if key != "balanced"
        )

    def test_accounting_reports_every_outcome(self):
        service = IngestService(make_config())
        assert set(service.accounting()) == {
            "accepted", "completed", "timed_out", "errors", "shed",
            "rejected_draining", "invalid", "coalesced", "batches",
            "pending", "balanced",
        }

    def test_capacity_frees_once_a_batch_is_answered(self):
        service = IngestService(make_config(queue_capacity=2))

        async def scenario():
            await service.start()
            first = await asyncio.gather(*[
                service.submit(CaptureRequest(i, device=i, scene=0)) for i in range(2)
            ])
            second = await asyncio.gather(*[
                service.submit(CaptureRequest(i, device=i, scene=1))
                for i in range(2, 4)
            ])
            await service.drain()
            return first + second

        responses = run_scenario(scenario())
        assert [r.status for r in responses] == ["ok"] * 4
        assert service.accounting()["shed"] == 0


class TestBatchMax:
    @pytest.mark.parametrize(
        "batch_max, sizes",
        [(1, [1, 1, 1, 1, 1, 1, 1]), (2, [1, 2, 2, 2]), (4, [1, 4, 2])],
    )
    def test_backlog_splits_into_batches_of_at_most_batch_max(
        self, batch_max, sizes
    ):
        service = IngestService(make_config(batch_max=batch_max))

        async def scenario():
            loop = asyncio.get_running_loop()
            entered, release, seen = gate_executor(service, loop)
            await service.start()
            try:
                first = service.submit(CaptureRequest(0, device=0, scene=0))
                await entered
                backlog = [
                    service.submit(CaptureRequest(i, device=i % 4, scene=1, repeat=i))
                    for i in range(1, 7)
                ]
            finally:
                release.set()
            responses = await asyncio.gather(first, *backlog)
            accounting = await service.drain()
            return seen, responses, accounting

        seen, responses, accounting = run_scenario(scenario())
        assert seen == sizes
        assert all(r.status == "ok" for r in responses)
        assert accounting["batches"] == len(sizes)


class TestCoalescingScope:
    def test_distinct_repeats_do_not_coalesce(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            responses = await asyncio.gather(*[
                service.submit(CaptureRequest(r, device=1, scene=1, repeat=r))
                for r in range(3)
            ])
            await service.drain()
            return responses

        responses = run_scenario(scenario())
        assert all(r.status == "ok" for r in responses)
        assert len({r.pixels_sha256 for r in responses}) == 3
        assert service.accounting()["coalesced"] == 0

    def test_duplicates_in_different_batches_each_execute(self):
        service = IngestService(make_config())

        async def scenario():
            loop = asyncio.get_running_loop()
            entered, release, sizes = gate_executor(service, loop)
            await service.start()
            try:
                first = service.submit(CaptureRequest(0, device=2, scene=1))
                await entered
                second = service.submit(CaptureRequest(1, device=2, scene=1))
            finally:
                release.set()
            responses = await asyncio.gather(first, second)
            await service.drain()
            return sizes, responses

        sizes, (first, second) = run_scenario(scenario())
        assert sizes == [1, 1]
        assert service.accounting()["coalesced"] == 0
        assert first.pixels_sha256 == second.pixels_sha256


class TestServeMetrics:
    def test_latency_histogram_counts_completed_requests(self):
        service = IngestService(make_config(queue_capacity=3))

        async def scenario():
            await service.start()
            await asyncio.gather(*[
                service.submit(CaptureRequest(i, device=i % 4, scene=0))
                for i in range(5)
            ])
            await service.drain()

        run_scenario(scenario())
        stats = service.stats()
        assert stats["counters"]["serve.completed"] == 3
        latency = stats["histograms"]["serve.latency_ms"]
        assert latency["count"] == 3
        assert latency["min"] >= 0.0

    def test_refusals_record_no_latency(self):
        service = IngestService(make_config())
        submit_all(service, [CaptureRequest(0, device=9, scene=0)])
        submit_all(service, [CaptureRequest(1, device=0, scene=0)])
        assert "serve.latency_ms" not in service.stats()["histograms"]

    def test_queue_depth_gauge_reads_the_last_admission(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            futures = [service.submit(CaptureRequest(i, i % 4, 0)) for i in range(5)]
            depth = service.stats()["gauges"]["serve.queue_depth"]
            await asyncio.gather(*futures)
            await service.drain()
            return depth

        assert run_scenario(scenario()) == 5

    def test_batch_size_gauge_counts_coalesced_requests(self):
        service = IngestService(make_config(batch_max=16))

        async def scenario():
            await service.start()
            await asyncio.gather(*[
                service.submit(CaptureRequest(i, device=0, scene=0)) for i in range(6)
            ])
            await service.drain()

        run_scenario(scenario())
        stats = service.stats()
        assert stats["gauges"]["serve.batch_size"] == 6
        assert stats["counters"]["serve.batches"] == 1

    def test_fully_expired_batch_is_not_counted_as_a_batch(self):
        service = IngestService(make_config(request_timeout_s=0.0))

        async def scenario():
            await service.start()
            await asyncio.gather(*[
                service.submit(CaptureRequest(i, 0, 0)) for i in range(3)
            ])
            return await service.drain()

        accounting = run_scenario(scenario())
        assert accounting["timed_out"] == 3
        assert accounting["batches"] == 0

    def test_stats_is_a_copy(self):
        service = IngestService(make_config())
        submit_all(service, [CaptureRequest(0, device=9, scene=0)])
        stats = service.stats()
        stats["counters"]["serve.invalid"] = 100
        assert service.accounting()["invalid"] == 1


class TestResponses:
    def test_ok_response_is_well_formed(self):
        service = IngestService(make_config())

        async def scenario():
            await service.start()
            response = await service.submit(CaptureRequest(7, device=1, scene=0))
            await service.drain()
            return response

        response = run_scenario(scenario())
        assert response.request_id == 7
        assert response.top1 == response.ranking[0]
        assert sorted(response.ranking) == list(range(len(ALL_CLASSES)))
        assert 0.0 < response.confidence <= 1.0
        assert len(response.pixels_sha256) == 64
        int(response.pixels_sha256, 16)
        assert response.encoded_size > 0
        assert response.latency_s >= 0.0
        assert response.detail == ""

    @pytest.mark.parametrize("status", ["shed", "invalid", "draining"])
    def test_refusals_carry_only_a_detail(self, status):
        service = IngestService(make_config(queue_capacity=1))

        async def scenario():
            await service.start()
            first = service.submit(CaptureRequest(0, device=0, scene=0))
            refused = {
                "shed": service.submit(CaptureRequest(1, device=1, scene=0)),
                "invalid": service.submit(CaptureRequest(2, device=9, scene=0)),
            }
            await first
            await service.drain()
            refused["draining"] = service.submit(CaptureRequest(3, device=0, scene=0))
            return {key: await future for key, future in refused.items()}

        response = run_scenario(scenario())[status]
        assert response.status == status
        assert response.detail
        assert response.status in STATUSES
        assert (response.top1, response.confidence, response.ranking) == (-1, 0.0, ())
        assert (response.pixels_sha256, response.encoded_size) == ("", 0)

    def test_timeout_detail_names_the_budget(self):
        service = IngestService(make_config(request_timeout_s=0.0))

        async def scenario():
            await service.start()
            response = await service.submit(CaptureRequest(0, 0, 0))
            await service.drain()
            return response

        response = run_scenario(scenario())
        assert response.status == "timeout"
        assert response.detail.endswith("> 0.0s budget")
        assert response.latency_s > 0.0
        assert response.top1 == -1

    def test_deterministic_fields_leave_out_timing_and_detail(self):
        base = CaptureResponse(3, "ok", top1=2, confidence=0.5, ranking=(2, 0, 1))
        other = CaptureResponse(
            3, "ok", top1=2, confidence=0.5, ranking=(2, 0, 1),
            latency_s=9.0, detail="slow",
        )
        assert base.deterministic_fields() == other.deterministic_fields()
        assert base.deterministic_fields() != CaptureResponse(
            3, "ok", top1=1, confidence=0.5, ranking=(2, 0, 1)
        ).deterministic_fields()

    def test_equal_configs_answer_equal_bits(self):
        request = CaptureRequest(0, device=2, scene=1, repeat=1)
        [a] = IngestService(make_config()).serial_reference([request])
        [b] = IngestService(make_config()).serial_reference([request])
        assert a.deterministic_fields() == b.deterministic_fields()

    def test_seed_changes_the_capture(self):
        request = CaptureRequest(0, device=0, scene=0)
        [a] = IngestService(make_config(seed=0)).serial_reference([request])
        [b] = IngestService(make_config(seed=1)).serial_reference([request])
        assert a.pixels_sha256 != b.pixels_sha256


class TestConstruction:
    @pytest.mark.parametrize("scenes", [1, 5, 6])
    def test_serves_the_configured_fleet_and_scenes(self, scenes):
        service = IngestService(make_config(fleet_size=3, scenes=scenes))
        assert len(service.devices) == 3
        assert len(service.displayed) == scenes
        assert len({shown.image_id for shown in service.displayed}) == scenes

    def test_unit_depends_on_coordinates_not_request_id(self, shared_service):
        a = shared_service.unit_for(CaptureRequest(0, device=1, scene=1))
        b = shared_service.unit_for(CaptureRequest(99, device=1, scene=1))
        assert a.entropy == b.entropy
        assert a.profile.name == b.profile.name
        assert a.radiance is b.radiance

    def test_repeat_changes_only_the_entropy(self, shared_service):
        a = shared_service.unit_for(CaptureRequest(0, device=1, scene=1, repeat=0))
        b = shared_service.unit_for(CaptureRequest(0, device=1, scene=1, repeat=1))
        assert a.entropy != b.entropy
        assert a.profile.name == b.profile.name
        assert a.radiance is b.radiance


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"fleet_size": 0},
            {"scenes": 0},
            {"queue_capacity": 0},
            {"batch_max": 0},
            {"request_timeout_s": -1.0},
            {"window_s": -1.0},
            {"model": "resnet"},
            {"window_s": 5.0},
        ],
    )
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServeConfig(**{**dict(model="untrained"), **overrides})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"fleet_size": 1},
            {"scenes": 1},
            {"queue_capacity": 1},
            {"batch_max": 1},
            {"request_timeout_s": 0.0},
            {"window_s": 0.0},
            {"model": "quick"},
        ],
    )
    def test_smallest_legal_values_accepted(self, overrides):
        config = ServeConfig(**overrides)
        for name, value in overrides.items():
            assert getattr(config, name) == value

    def test_config_is_frozen(self):
        config = ServeConfig()
        with pytest.raises(dataclasses.FrozenInstanceError):
            config.queue_capacity = 1


class TestWireLayerRemoved:
    @pytest.mark.parametrize("command", ["serve", "loadgen"])
    def test_cli_has_no_wire_commands(self, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2

    def test_no_load_generator_package(self):
        assert importlib.util.find_spec("repro.loadgen") is None

    def test_serve_exports_only_the_in_process_service(self):
        assert sorted(repro.serve.__all__) == sorted(
            ["STATUSES", "CaptureRequest", "CaptureResponse", "IngestService", "ServeConfig"]
        )
