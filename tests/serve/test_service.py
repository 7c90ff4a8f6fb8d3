"""Service-path invariants: shedding, drain, timeouts, windows, warming.

These are the acceptance criteria of the serving PR in executable form:
bounded queues shed under overload without deadlock, graceful drain
answers or accounts for every accepted request, and the streaming
(windowed) metrics agree with the direct counts.
"""

import asyncio
import threading

import pytest

from repro.runner.cache import CaptureCache
from repro.serve.service import (
    CaptureRequest,
    IngestService,
    ServeConfig,
    latency_summary,
)
from repro.runner.units import unit_cache_key

from .conftest import make_config, run_scenario


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


class TestWindowedMetrics:
    def test_window_totals_match_direct_counts(self):
        service = IngestService(make_config(window_s=0.05))

        async def scenario():
            await service.start()
            for burst in range(3):
                futures = [
                    service.submit(CaptureRequest(burst * 4 + i, i % 4, 0))
                    for i in range(4)
                ]
                await asyncio.gather(*futures)
                await asyncio.sleep(0.08)  # force at least one window roll
            accounting = await service.drain()
            return accounting

        accounting = run_scenario(scenario())
        assert service._windows_rolled >= 3
        # The cumulative registry was built purely from window-snapshot
        # merges, yet its totals equal the per-event ground truth.
        counters = service.stats()["counters"]
        assert counters["serve.accepted"] == 12.0
        assert counters["serve.completed"] == 12.0
        assert service.stats()["histograms"]["serve.latency_ms"]["count"] == 12
        assert accounting["balanced"]


class TestCacheWarming:
    def test_warm_caches_every_device_scene_unit(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        service = IngestService(make_config(fleet_size=4, scenes=2), cache=cache)
        report = service.warm()
        assert report == {"candidates": 4 * 2, "already_cached": 0, "warmed": 4 * 2}
        # Every (device, scene) unit the service can be asked for is now
        # a cache hit.
        for device in range(4):
            for scene in range(2):
                unit = service.unit_for(CaptureRequest(-1, device, scene, 0))
                assert unit_cache_key(unit) in cache

    def test_warm_is_idempotent(self, tmp_path):
        cache = CaptureCache(tmp_path / "cache")
        service = IngestService(make_config(), cache=cache)
        first = service.warm()
        second = service.warm()
        assert first["warmed"] > 0
        assert second["warmed"] == 0
        assert second["already_cached"] == first["candidates"]

    def test_warm_requires_cache(self):
        service = IngestService(make_config())
        with pytest.raises(ValueError):
            service.warm()


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
        ],
    )
    def test_bad_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServeConfig(**{**dict(model="untrained"), **overrides})


class TestLatencySummary:
    def test_empty(self):
        assert latency_summary([]) == {"count": 0}

    def test_percentiles_nearest_rank(self):
        summary = latency_summary([i / 1000 for i in range(1, 101)])
        assert summary["count"] == 100
        assert summary["p50_ms"] == pytest.approx(50.0)
        assert summary["p95_ms"] == pytest.approx(95.0)
        assert summary["p99_ms"] == pytest.approx(99.0)
        assert summary["max_ms"] == pytest.approx(100.0)
