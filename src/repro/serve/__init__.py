"""repro.serve — in-process capture-ingestion service.

A bounded-queue asyncio service over the one-shot experiment runner: it
admits capture requests, coalesces them into batches over the existing
:class:`~repro.runner.executor.FleetExecutor` fan-out, and answers each
with a prediction plus a pixel digest. See :mod:`repro.serve.service`
for the stage-by-stage design and ARCHITECTURE.md's serving section.

Determinism contract: responses are a pure function of request
coordinates — a drained service run is bit-identical to
:meth:`IngestService.serial_reference` on the same request set.
"""

from .service import (
    STATUSES,
    CaptureRequest,
    CaptureResponse,
    IngestService,
    ServeConfig,
)

__all__ = [
    "STATUSES",
    "CaptureRequest",
    "CaptureResponse",
    "IngestService",
    "ServeConfig",
]
