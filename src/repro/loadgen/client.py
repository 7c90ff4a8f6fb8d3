"""Load-generator drivers: over TCP and in-process.

:func:`run_loadgen` is the network client behind ``python -m repro
loadgen``: connect (with retry, so CI can start server and client
concurrently), ``hello`` to learn the served dimensions, fire a seeded
open-loop schedule (:mod:`repro.loadgen.generator`), collect every
``result`` line, and optionally ``drain`` the server at the end.

:func:`drive_inproc` drives an :class:`~repro.serve.service.IngestService`
directly — same schedule, no sockets, no pacing — for tests where the
wire would only add noise.

Both return a report with per-status counts and client-observed
p50/p95/p99 latency (:func:`~repro.serve.service.latency_summary`).
Wall-clock here paces arrivals and measures latency only; it never
touches response payloads, like the server side.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from ..serve.protocol import capture_message, decode_message, encode_message
from ..serve.service import CaptureRequest, IngestService, latency_summary
from .generator import ScheduledRequest, build_schedule

__all__ = ["run_loadgen", "drive_inproc", "summarize_results"]


def summarize_results(
    results: List[Dict], elapsed_s: float, planned: int
) -> Dict:
    """Aggregate raw result messages into the loadgen report."""
    by_status: Dict[str, int] = {}
    latencies: List[float] = []
    for message in results:
        status = message.get("status", "error")
        by_status[status] = by_status.get(status, 0) + 1
        if status == "ok":
            latencies.append(message.get("latency_ms", 0.0) / 1e3)
    completed = by_status.get("ok", 0)
    elapsed = max(elapsed_s, 1e-9)
    return {
        "planned": planned,
        "answered": len(results),
        "by_status": dict(sorted(by_status.items())),
        "elapsed_s": elapsed,
        "captures_per_sec": completed / elapsed,
        "latency": latency_summary(latencies),
    }


async def run_loadgen(
    host: str,
    port: int,
    count: int,
    rate: float,
    seed: int = 0,
    repeats: int = 1,
    drain: bool = False,
    connect_timeout_s: float = 30.0,
    settle_timeout_s: float = 60.0,
) -> Dict:
    """Drive a running serve endpoint with an open-loop schedule.

    Connects (retrying up to ``connect_timeout_s``), builds the schedule
    from the server-reported device/scene dimensions, fires each request
    at its planned time regardless of outstanding responses, then waits
    up to ``settle_timeout_s`` for every answer. With ``drain=True``
    the run ends by draining *and stopping* the server, and the report
    includes the server's final accounting.
    """
    loop = asyncio.get_running_loop()
    deadline = loop.time() + connect_timeout_s
    while True:
        try:
            reader, writer = await asyncio.open_connection(host, port)
            break
        except OSError:
            if loop.time() >= deadline:
                raise
            await asyncio.sleep(0.1)

    async def ask(message: Dict) -> Dict:
        writer.write(encode_message(message))
        await writer.drain()
        return decode_message(await reader.readline())

    hello = await ask({"op": "hello"})
    schedule = build_schedule(
        count=count,
        rate=rate,
        devices=int(hello["devices"]),
        scenes=int(hello["scenes"]),
        seed=seed,
        repeats=repeats,
    )

    results: List[Dict] = []
    answered = asyncio.Event()

    async def read_results() -> None:
        while len(results) < len(schedule):
            line = await reader.readline()
            if not line:
                break
            message = decode_message(line)
            if message.get("op") == "result":
                results.append(message)
        answered.set()

    reader_task = loop.create_task(read_results())
    start = loop.time()
    for planned in schedule:
        delay = start + planned.at_s - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        writer.write(
            encode_message(
                capture_message(
                    planned.request_id, planned.device, planned.scene, planned.repeat
                )
            )
        )
        await writer.drain()
    if schedule:
        try:
            await asyncio.wait_for(answered.wait(), settle_timeout_s)
        except asyncio.TimeoutError:
            pass
    reader_task.cancel()
    await asyncio.gather(reader_task, return_exceptions=True)
    elapsed = loop.time() - start

    report = summarize_results(results, elapsed, planned=len(schedule))
    report["results"] = results
    report["server"] = {
        "devices": int(hello["devices"]),
        "scenes": int(hello["scenes"]),
        "seed": int(hello["seed"]),
    }
    if drain:
        drained = await ask({"op": "drain", "stop": True})
        report["server_accounting"] = drained.get("accounting", {})
    writer.close()
    return report


async def drive_inproc(
    service: IngestService, schedule: List[ScheduledRequest]
) -> Dict:
    """Drive an in-process service with a prebuilt schedule.

    Every request is submitted at once, in schedule order, ignoring its
    planned time: the overload mode the serving tests use. The service
    must already be started; the caller drains it afterwards. The report
    maps ``request_id -> CaptureResponse`` under ``"responses"``
    alongside the summary counts.
    """
    loop = asyncio.get_running_loop()
    futures = []
    start = loop.time()
    for planned in schedule:
        futures.append(
            service.submit(
                CaptureRequest(
                    request_id=planned.request_id,
                    device=planned.device,
                    scene=planned.scene,
                    repeat=planned.repeat,
                )
            )
        )
    responses = list(await asyncio.gather(*futures)) if futures else []
    elapsed = loop.time() - start
    by_status: Dict[str, int] = {}
    latencies: List[float] = []
    for response in responses:
        by_status[response.status] = by_status.get(response.status, 0) + 1
        if response.status == "ok":
            latencies.append(response.latency_s)
    completed = by_status.get("ok", 0)
    return {
        "planned": len(schedule),
        "answered": len(responses),
        "by_status": dict(sorted(by_status.items())),
        "elapsed_s": max(elapsed, 1e-9),
        "captures_per_sec": completed / max(elapsed, 1e-9),
        "latency": latency_summary(latencies),
        "responses": {r.request_id: r for r in responses},
    }
