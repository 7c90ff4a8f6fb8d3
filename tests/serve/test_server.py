"""TCP end-to-end: server + network load generator + CLI parser wiring."""

import asyncio

import pytest

from repro.__main__ import build_parser
from repro.loadgen.client import run_loadgen
from repro.serve.protocol import capture_message, decode_message, encode_message
from repro.serve.server import ServeServer
from repro.serve.service import IngestService

from .conftest import make_config, run_scenario


def serve_and_drive(
    count=20, rate=500.0, seed=5, settle_timeout_s=60.0, **config_overrides
):
    server = ServeServer(IngestService(make_config(**config_overrides)), port=0)

    async def scenario():
        await server.start()
        run_task = asyncio.create_task(server.run())
        report = await run_loadgen(
            "127.0.0.1",
            server.port,
            count=count,
            rate=rate,
            seed=seed,
            drain=True,
            settle_timeout_s=settle_timeout_s,
        )
        accounting = await asyncio.wait_for(run_task, 60)
        return report, accounting

    return run_scenario(scenario())


class TestEndToEnd:
    def test_loadgen_round_trip_and_clean_drain(self):
        report, accounting = serve_and_drive(count=20)
        assert report["answered"] == report["planned"] == 20
        assert report["by_status"]["ok"] == 20
        assert report["captures_per_sec"] > 0
        assert report["latency"]["count"] == 20
        assert accounting["balanced"]
        assert accounting["accepted"] == 20
        assert report["server_accounting"] == accounting

    def test_drain_reply_found_behind_late_results(self):
        # The settle wait gives up long before the first capture is
        # answered, so every result arrives after the client's drain.
        report, accounting = serve_and_drive(
            count=20, rate=1000.0, settle_timeout_s=0.001
        )
        assert accounting["balanced"]
        assert accounting["completed"] == 20
        assert report["server_accounting"] == accounting

    def test_client_gone_before_its_results(self):
        # The client sends work and leaves without reading. Writing the
        # results fails, which fails the connection's next read too: the
        # handler must end quietly, not raise out of the callback.
        server = ServeServer(IngestService(make_config()), port=0)

        async def scenario():
            await server.start()
            run_task = asyncio.create_task(server.run())
            _, writer = await asyncio.open_connection("127.0.0.1", server.port)
            for i in range(8):
                writer.write(encode_message(capture_message(i, i % 4, i % 2, 0)))
            writer.write(encode_message({"op": "drain"}))
            writer.close()
            await writer.wait_closed()
            while server.drained is None:
                await asyncio.sleep(0.01)
            server.request_stop()
            return await asyncio.wait_for(run_task, 30)

        accounting = run_scenario(scenario())
        assert accounting["balanced"]
        assert accounting["completed"] == 8

    def test_wire_results_match_inproc_reference(self):
        # The digests shipped over TCP are the serial-runner digests:
        # bit-identity is checkable across the network boundary.
        report, _ = serve_and_drive(count=12, seed=9)
        service = IngestService(make_config())
        from repro.loadgen.generator import build_schedule
        from repro.serve.service import CaptureRequest

        schedule = build_schedule(
            count=12, rate=500.0, devices=4, scenes=2, seed=9, repeats=1
        )
        serial = service.serial_reference(
            [CaptureRequest(p.request_id, p.device, p.scene, p.repeat) for p in schedule]
        )
        expected = {r.request_id: r for r in serial}
        assert len(report["results"]) == 12
        for message in report["results"]:
            reference = expected[message["id"]]
            assert message["pixels_sha256"] == reference.pixels_sha256
            assert message["top1"] == reference.top1
            assert message["ranking"] == list(reference.ranking)
            assert message["encoded_size"] == reference.encoded_size

    def test_protocol_errors_answered_not_fatal(self):
        server = ServeServer(IngestService(make_config()), port=0)

        async def scenario():
            await server.start()
            run_task = asyncio.create_task(server.run())
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            writer.write(b"this is not json\n")
            await writer.drain()
            error = decode_message(await reader.readline())
            writer.write(encode_message({"op": "hello"}))
            await writer.drain()
            hello = decode_message(await reader.readline())
            writer.write(encode_message({"op": "drain", "stop": True}))
            await writer.drain()
            drained = decode_message(await reader.readline())
            writer.close()
            await asyncio.wait_for(run_task, 30)
            return error, hello, drained

        error, hello, drained = run_scenario(scenario())
        assert error["op"] == "error"
        assert hello["op"] == "hello"
        assert hello["devices"] == 4
        assert hello["scenes"] == 2
        assert drained["op"] == "drained"
        assert drained["accounting"]["balanced"]


class TestParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 7070
        assert args.fleet_size == 16
        assert args.scenes == 4
        assert args.queue_capacity == 256
        assert args.batch_max == 64
        assert args.model == "quick"
        assert args.workers == 0
        assert not args.warm

    def test_serve_flags_parse(self):
        args = build_parser().parse_args(
            [
                "serve",
                "--port", "0",
                "--fleet-size", "64",
                "--scenes", "8",
                "--queue-capacity", "512",
                "--batch-max", "32",
                "--request-timeout", "10",
                "--window", "2",
                "--model", "untrained",
                "--warm",
                "--cache-dir", "/tmp/cache",
                "--workers", "2",
                "--summary-out", "summary.json",
            ]
        )
        assert args.fleet_size == 64
        assert args.queue_capacity == 512
        assert args.warm

    @pytest.mark.parametrize(
        "flag", [["--shard-index", "1"], ["--shard-count", "2"]]
    )
    def test_removed_shard_flags_rejected(self, flag):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["serve", *flag])
        assert excinfo.value.code == 2

    def test_loadgen_defaults(self):
        args = build_parser().parse_args(["loadgen"])
        assert args.port == 7070
        assert args.count == 500
        assert args.rate == 50.0
        assert args.repeats == 1
        assert not args.drain

    def test_loadgen_flags_parse(self):
        args = build_parser().parse_args(
            [
                "loadgen",
                "--port", "7071",
                "--count", "100",
                "--rate", "25",
                "--seed", "3",
                "--repeats", "2",
                "--drain",
                "--connect-timeout", "5",
                "--save", "report.json",
            ]
        )
        assert args.count == 100
        assert args.drain
        assert args.connect_timeout == 5.0
