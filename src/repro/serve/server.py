"""TCP front-end for :class:`~repro.serve.service.IngestService`.

One asyncio stream server speaking the newline-delimited JSON protocol
(:mod:`repro.serve.protocol`). Each connection is independent: the
reader task decodes lines, feeds ``capture`` messages straight into the
service's synchronous :meth:`~repro.serve.service.IngestService.submit`
(so shedding happens inline, before any await), and attaches a done
callback that writes the ``result`` line back on the same connection.
``drain`` triggers the service-wide graceful drain and, with
``"stop": true``, shuts the whole server down afterwards — that is how
``python -m repro loadgen --drain`` ends a benchmark run cleanly.

Responses on one connection are written in completion order, not
submission order; the ``id`` echo token is the client's correlation key.
"""

from __future__ import annotations

import asyncio
from typing import Dict, Optional, Set

from .protocol import ProtocolError, decode_message, encode_message, result_message
from .service import CaptureRequest, CaptureResponse, IngestService

__all__ = ["ServeServer"]


class ServeServer:
    """Serve one :class:`IngestService` over TCP.

    Parameters
    ----------
    service:
        A constructed (not yet started) service; the server owns its
        lifecycle from :meth:`run`.
    host, port:
        Bind address. ``port=0`` asks the OS for a free port —
        :attr:`port` reports the bound one (tests and the CLI print it).
    """

    def __init__(self, service: IngestService, host: str = "127.0.0.1", port: int = 0):
        self.service = service
        self.host = host
        self.port = port
        self._server: Optional[asyncio.AbstractServer] = None
        self._stopping: Optional[asyncio.Event] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._handlers: Set["asyncio.Task"] = set()
        self.drained: Optional[Dict] = None

    async def start(self) -> None:
        """Start the service and bind the listener."""
        self._stopping = asyncio.Event()
        await self.service.start()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    async def run(self) -> Dict:
        """Start, serve until a ``drain stop=true`` arrives (or
        :meth:`request_stop`), then drain and close. Returns the final
        accounting."""
        if self._server is None:
            await self.start()
        assert self._server is not None and self._stopping is not None
        async with self._server:
            await self._stopping.wait()
        if self.drained is None:
            self.drained = await self.service.drain()
        for writer in list(self._writers):
            writer.close()
        # Give connection handlers a moment to observe the closed
        # transports and exit; anything still stuck is abandoned (its
        # requests were already answered by the drain above).
        handlers = [t for t in self._handlers if not t.done()]
        if handlers:
            await asyncio.wait(handlers, timeout=1.0)
        return self.drained

    def request_stop(self) -> None:
        """Ask :meth:`run` to drain and exit (signal handlers use this)."""
        if self._stopping is not None:
            self._stopping.set()

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        task = asyncio.current_task()
        if task is not None:
            self._handlers.add(task)
            task.add_done_callback(self._handlers.discard)
        write_lock = asyncio.Lock()
        send_tasks: Set["asyncio.Task"] = set()

        async def send(message: Dict) -> None:
            # The lock serializes whole frames onto the shared writer —
            # interleaved partial writes would corrupt the NDJSON stream.
            # The awaited drain inside it is flow control on this same
            # writer, so it cannot be hoisted out of the critical section.
            async with write_lock:
                if writer.is_closing():
                    return
                writer.write(encode_message(message))
                await writer.drain()

        def _send_finished(task: "asyncio.Task") -> None:
            send_tasks.discard(task)
            if not task.cancelled():
                # Retrieve the exception so the loop never warns about an
                # unconsumed failure; a send can only fail because the
                # client vanished mid-reply, which the read loop already
                # handles by closing the connection.
                task.exception()

        def on_done(task: "asyncio.Future[CaptureResponse]") -> None:
            if task.cancelled():
                return
            sender = asyncio.get_running_loop().create_task(
                send(result_message(task.result()))
            )
            # Hold a strong reference: the loop keeps only weak ones, so
            # an unreferenced send task could be garbage collected (and
            # its reply lost) before it runs.
            send_tasks.add(sender)
            sender.add_done_callback(_send_finished)

        try:
            while True:
                try:
                    line = await reader.readline()
                except (ConnectionError, asyncio.IncompleteReadError):
                    break
                except asyncio.CancelledError:
                    # Loop shutdown mid-read: the drain already answered
                    # every accepted request, so a quiet exit is correct.
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    message = decode_message(line)
                except ProtocolError as exc:
                    await send({"op": "error", "detail": str(exc)})
                    continue
                op = message["op"]
                if op == "capture":
                    request = CaptureRequest(
                        request_id=int(message.get("id", -1)),
                        device=int(message.get("device", -1)),
                        scene=int(message.get("scene", -1)),
                        repeat=int(message.get("repeat", 0)),
                    )
                    self.service.submit(request).add_done_callback(on_done)
                elif op == "hello":
                    await send(
                        {
                            "op": "hello",
                            "devices": len(self.service.devices),
                            "scenes": len(self.service.displayed),
                            "seed": self.service.config.seed,
                            "queue_capacity": self.service.config.queue_capacity,
                        }
                    )
                elif op == "stats":
                    await send(
                        {
                            "op": "stats",
                            "metrics": self.service.stats(),
                            "accounting": self.service.accounting(),
                        }
                    )
                elif op == "drain":
                    self.drained = await self.service.drain()
                    await send({"op": "drained", "accounting": self.drained})
                    if message.get("stop"):
                        self.request_stop()
                else:
                    await send({"op": "error", "detail": f"unknown op {op!r}"})
        finally:
            self._writers.discard(writer)
            writer.close()
