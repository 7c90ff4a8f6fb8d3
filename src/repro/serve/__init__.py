"""repro.serve — streaming capture-ingestion service.

The long-running counterpart of the one-shot experiment runner: a
bounded-queue asyncio service that admits capture requests, coalesces
them into batches over the existing :class:`~repro.runner.executor`
fan-out, answers each with a prediction plus a pixel digest, and streams
windowed instability metrics through :mod:`repro.obs`. See ``SERVING.md``
for the operations runbook and :mod:`repro.serve.service` for the
stage-by-stage design.

Determinism contract: responses are a pure function of request
coordinates — a drained service run is bit-identical to
:meth:`IngestService.serial_reference` on the same request set.
"""

from .protocol import (
    CLIENT_OPS,
    SERVER_OPS,
    ProtocolError,
    capture_message,
    decode_message,
    encode_message,
    result_message,
)
from .server import ServeServer
from .service import (
    STATUSES,
    CaptureRequest,
    CaptureResponse,
    IngestService,
    ServeConfig,
    latency_summary,
)

__all__ = [
    "CLIENT_OPS",
    "SERVER_OPS",
    "ProtocolError",
    "capture_message",
    "decode_message",
    "encode_message",
    "result_message",
    "ServeServer",
    "STATUSES",
    "CaptureRequest",
    "CaptureResponse",
    "IngestService",
    "ServeConfig",
    "latency_summary",
]
