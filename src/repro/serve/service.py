"""The in-process ingestion service: bounded queue → batcher → executor.

:class:`IngestService` runs the one-shot capture pipeline behind an
asyncio queue. Requests name coordinates into service-owned state —
device *d* of a seeded :func:`~repro.fleet.population.generate_devices`
population photographs displayed scene *s*, repeat *r* — and flow
through four stages:

1. **Admission** (:meth:`IngestService.submit`) — synchronous and
   non-blocking. A full queue *sheds* the request immediately with a
   counted ``serve.shed`` (explicit backpressure: a caller never
   blocks, the service never buffers unboundedly); a draining service
   rejects with ``serve.rejected_draining``;
   out-of-range coordinates reject with ``serve.invalid``. Everything
   admitted increments ``serve.accepted`` and is *guaranteed a terminal
   response* — completed, timed out, or errored — which is the
   accounting invariant :meth:`accounting` checks.
2. **Batching** — a single, work-conserving batcher task takes every
   request already queued (up to ``batch_max``) the moment the previous
   batch finishes, never waiting for more, and coalesces duplicates:
   requests with equal ``(device, scene, repeat)`` coordinates map to
   one :class:`~repro.runner.units.CaptureUnit` (equal coordinates ⇒
   equal unit), executed once and fanned back to every requester
   (``serve.coalesced``). Requests whose ``request_timeout_s`` deadline
   passed while queued are answered ``timeout`` instead of executed.
3. **Execution** — the batch's unique units run through the same
   :class:`~repro.runner.executor.FleetExecutor` as every offline study,
   in a worker thread so the event loop keeps admitting and shedding
   while capture work is in flight. The executor's fused group pass
   (:func:`~repro.runner.units.execute_unit_group`) carries every
   capture, a group of one included, and is bit-identical to one
   ``execute_unit`` per capture. Inference runs **per capture**
   (``predict_one``), never over the coalesced batch, so a response is a
   pure function of its request coordinates alone — batch composition,
   arrival order, and worker count cannot change a bit. That is the
   drained-service == serial-runner invariant
   (:meth:`serial_reference`, pinned by ``tests/serve/``).
4. **Metrics** — every event is recorded into one
   :class:`~repro.obs.metrics.MetricsRegistry`, ``self.metrics``;
   :meth:`stats` is its snapshot and :meth:`accounting` reads its
   counters.

Shutdown is a **graceful drain** (:meth:`drain`): admission closes,
everything already accepted is answered, the batcher stops, and the
final accounting is returned.

Wall-clock reads here steer scheduling and reported latencies only —
payload bits all come from the pure capture path, which
``tests/serve/test_identity.py`` pins to the serial reference.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.runtime import DeviceRuntime
from ..fleet.population import SyntheticDevice, generate_devices
from ..imaging.image import ImageBuffer
from ..lab.rig import CaptureRig, DisplayedImage
from ..nn.model import Model, micro_mobilenet
from ..obs.metrics import MetricsRegistry
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit, execute_unit
from ..scenes.dataset import build_dataset
from ..scenes.objects import ALL_CLASSES
from ..scenes.screen import Screen

__all__ = [
    "STATUSES",
    "ServeConfig",
    "CaptureRequest",
    "CaptureResponse",
    "IngestService",
]

#: Terminal request statuses. Exactly one is attached to every submit().
STATUSES = ("ok", "shed", "timeout", "draining", "invalid", "error")

@dataclass(frozen=True)
class ServeConfig:
    """Static configuration of one :class:`IngestService`.

    Attributes
    ----------
    fleet_size, scenes, seed:
        The served population (``generate_devices(fleet_size, seed)``)
        and displayed-scene set (same construction as the population
        study: shared radiance, one angle). ``seed`` also seeds the
        per-unit capture entropy, so a service and a population study
        with equal seeds name the same capture units.
    queue_capacity:
        Bound on queued (admitted, not yet batched) requests. Admission
        beyond it sheds, never blocks.
    batch_max:
        Most requests one batch takes. The batcher never waits for a
        batch to fill: it takes whatever is queued when the previous
        batch finishes, so a lone request runs at once and a backlog
        runs in batches of up to ``batch_max``.
    request_timeout_s:
        Queue-time budget. A request older than this when its batch is
        assembled is answered ``timeout`` instead of executed.
    workers:
        :class:`FleetExecutor` process count for the capture fan-out
        (``0`` = serial in-thread — output-identical either way).
    window_s:
        Kept for callers that still pass it; only ``0.0`` is accepted.
    model:
        ``"quick"`` — the fleet studies' quick-trained classifier
        (:func:`repro.fleet.studies.fleet_model`, disk-cached);
        ``"untrained"`` — a seed-1 untrained MicroMobileNet (instant
        start, for smoke tests and throughput benchmarks).
    """

    fleet_size: int = 16
    scenes: int = 4
    seed: int = 0
    queue_capacity: int = 256
    batch_max: int = 64
    request_timeout_s: float = 30.0
    workers: int = 0
    window_s: float = 0.0
    model: str = "quick"

    def __post_init__(self) -> None:
        if self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if self.scenes < 1:
            raise ValueError("scenes must be >= 1")
        if self.queue_capacity < 1:
            raise ValueError("queue_capacity must be >= 1")
        if self.batch_max < 1:
            raise ValueError("batch_max must be >= 1")
        if self.request_timeout_s < 0:
            raise ValueError("request_timeout_s must be >= 0")
        if self.window_s != 0.0:
            raise ValueError("window_s must be 0.0 (metrics are not windowed)")
        if self.model not in ("quick", "untrained"):
            raise ValueError(f"unknown model choice {self.model!r}")


@dataclass(frozen=True)
class CaptureRequest:
    """One ingestion request: coordinates into the served fleet."""

    request_id: int
    device: int
    scene: int
    repeat: int = 0


@dataclass(frozen=True)
class CaptureResponse:
    """The terminal answer to one :class:`CaptureRequest`.

    ``status == "ok"`` carries the prediction and a SHA-256 digest of
    the decoded pixel buffer; every other status carries ``detail``.
    ``latency_s`` is measurement side-band — excluded from
    :meth:`deterministic_fields`.
    """

    request_id: int
    status: str
    top1: int = -1
    confidence: float = 0.0
    ranking: Tuple[int, ...] = ()
    pixels_sha256: str = ""
    encoded_size: int = 0
    latency_s: float = 0.0
    detail: str = ""

    def deterministic_fields(self) -> Tuple:
        """Everything a response asserts about *results* (no timing)."""
        return (
            self.request_id,
            self.status,
            self.top1,
            self.confidence,
            self.ranking,
            self.pixels_sha256,
            self.encoded_size,
        )


@dataclass
class _Pending:
    """One admitted request waiting in the queue."""

    request: CaptureRequest
    arrival: float
    future: "asyncio.Future[CaptureResponse]"


@dataclass
class _UnitResult:
    """What the worker thread ships back per unique unit."""

    top1: int
    confidence: float
    ranking: Tuple[int, ...]
    pixels_sha256: str
    encoded_size: int


class IngestService:
    """Long-running capture ingestion over a fixed fleet + scene set.

    Parameters
    ----------
    config:
        The static :class:`ServeConfig`.
    model:
        Optional explicit classifier (overrides ``config.model``) —
        tests pass an untrained model; production uses the default.
    """

    def __init__(self, config: ServeConfig, model: Optional[Model] = None) -> None:
        self.config = config
        self.devices: List[SyntheticDevice] = generate_devices(
            config.fleet_size, seed=config.seed
        )
        dataset = build_dataset(
            per_class=max(1, math.ceil(config.scenes / 5)), seed=config.seed
        )
        rig = CaptureRig(screen=Screen(seed=config.seed), angles=(0.0,))
        displayed = rig.present(list(dataset))[: config.scenes]
        if len(displayed) < config.scenes:
            raise ValueError(
                f"dataset yielded only {len(displayed)} scenes; "
                f"asked for {config.scenes}"
            )
        self.displayed: List[DisplayedImage] = displayed
        if model is None:
            if config.model == "untrained":
                model = micro_mobilenet(num_classes=len(ALL_CLASSES), seed=1)
            else:
                from ..fleet.studies import fleet_model

                model = fleet_model()
        self.runtime = DeviceRuntime(model)
        self.executor = FleetExecutor(workers=config.workers)
        self.metrics = MetricsRegistry()
        self._queue: Optional[asyncio.Queue] = None
        self._accepting = False
        self._batcher_task: Optional[asyncio.Task] = None

    # ------------------------------------------------------------------
    # Request → unit (the deterministic core)
    # ------------------------------------------------------------------
    def unit_for(self, request: CaptureRequest) -> CaptureUnit:
        """The :class:`CaptureUnit` a request's coordinates name.

        Identical to the population study's unit construction — same
        entropy derivation, same profile, same radiance — so a served
        capture equals the offline study's capture at equal seeds.
        """
        device = self.devices[request.device]
        shown = self.displayed[request.scene]
        return CaptureUnit(
            kind="photograph",
            profile=device.profile,
            radiance=shown.radiance.pixels,
            entropy=unit_entropy(
                self.config.seed,
                device.profile.name,
                shown.image_id,
                request.repeat,
            ),
        )

    def _result_from_payload(self, payload: Dict[str, np.ndarray]) -> _UnitResult:
        pixels = payload["pixels"]
        prediction = self.runtime.predict_one(ImageBuffer(pixels))
        digest = hashlib.sha256(np.ascontiguousarray(pixels).tobytes()).hexdigest()
        return _UnitResult(
            top1=prediction.top1,
            confidence=prediction.confidence,
            ranking=prediction.ranking,
            pixels_sha256=digest,
            encoded_size=int(payload["encoded_size"]),
        )

    def serial_reference(
        self, requests: Sequence[CaptureRequest]
    ) -> List[CaptureResponse]:
        """The serial-runner answer to a request set.

        One request at a time, no queue, no batching, no coalescing, no
        pool: ``execute_unit`` then single-image inference. A drained
        service must agree with this bit for bit on every
        :meth:`CaptureResponse.deterministic_fields` — the serving
        analogue of the repo's parallel == serial invariant.
        """
        responses = []
        for request in requests:
            result = self._result_from_payload(execute_unit(self.unit_for(request)))
            responses.append(self._ok_response(request, result, latency=0.0))
        return responses

    @staticmethod
    def _ok_response(
        request: CaptureRequest, result: _UnitResult, latency: float
    ) -> CaptureResponse:
        return CaptureResponse(
            request_id=request.request_id,
            status="ok",
            top1=result.top1,
            confidence=result.confidence,
            ranking=result.ranking,
            pixels_sha256=result.pixels_sha256,
            encoded_size=result.encoded_size,
            latency_s=latency,
        )

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def stats(self) -> Dict:
        """Snapshot of every serve metric recorded so far."""
        return self.metrics.snapshot()

    def accounting(self) -> Dict:
        """Request accounting, with the conservation check.

        ``balanced`` is the drain guarantee: every accepted request got
        exactly one terminal answer (completed, timed out, or errored);
        everything else was refused up front with a counted reason.
        """
        counters = self.stats().get("counters", {})

        def get(name: str) -> int:
            return int(counters.get(name, 0))

        accepted = get("serve.accepted")
        completed = get("serve.completed")
        timed_out = get("serve.timeout")
        errors = get("serve.errors")
        report = {
            "accepted": accepted,
            "completed": completed,
            "timed_out": timed_out,
            "errors": errors,
            "shed": get("serve.shed"),
            "rejected_draining": get("serve.rejected_draining"),
            "invalid": get("serve.invalid"),
            "coalesced": get("serve.coalesced"),
            "batches": get("serve.batches"),
            "pending": self._queue.qsize() if self._queue is not None else 0,
            "balanced": accepted == completed + timed_out + errors,
        }
        return report

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Begin accepting: spawn the batcher. Must run inside an event
        loop."""
        if self._batcher_task is not None:
            raise RuntimeError("service already started")
        self._queue = asyncio.Queue()
        self._accepting = True
        self._batcher_task = asyncio.get_running_loop().create_task(self._batch_loop())

    async def drain(self) -> Dict:
        """Graceful shutdown: refuse new work, answer all accepted work.

        Idempotent. Returns the final :meth:`accounting` (with
        ``balanced`` asserting the conservation invariant).
        """
        self._accepting = False
        if self._queue is not None:
            await self._queue.join()
        if self._batcher_task is not None:
            self._batcher_task.cancel()
            await asyncio.gather(self._batcher_task, return_exceptions=True)
            self._batcher_task = None
        return self.accounting()

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def _validate(self, request: CaptureRequest) -> Optional[str]:
        if not 0 <= request.device < len(self.devices):
            return f"device {request.device} outside fleet of {len(self.devices)}"
        if not 0 <= request.scene < len(self.displayed):
            return f"scene {request.scene} outside {len(self.displayed)} scenes"
        if request.repeat < 0:
            return f"negative repeat {request.repeat}"
        return None

    def submit(self, request: CaptureRequest) -> "asyncio.Future[CaptureResponse]":
        """Admit (or immediately refuse) one request.

        Synchronous and non-blocking by design: the returned future is
        already resolved for refusals (``invalid`` / ``draining`` /
        ``shed``), and resolves with the terminal response otherwise.
        Never raises for a well-typed request.
        """
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[CaptureResponse]" = loop.create_future()
        problem = self._validate(request)
        if problem is not None:
            self.metrics.count("serve.invalid")
            future.set_result(
                CaptureResponse(request.request_id, "invalid", detail=problem)
            )
            return future
        if not self._accepting or self._queue is None:
            self.metrics.count("serve.rejected_draining")
            future.set_result(
                CaptureResponse(
                    request.request_id, "draining", detail="service is draining"
                )
            )
            return future
        if self._queue.qsize() >= self.config.queue_capacity:
            self.metrics.count("serve.shed")
            future.set_result(
                CaptureResponse(
                    request.request_id,
                    "shed",
                    detail=f"queue full ({self.config.queue_capacity})",
                )
            )
            return future
        self.metrics.count("serve.accepted")
        self._queue.put_nowait(_Pending(request, loop.time(), future))
        self.metrics.gauge("serve.queue_depth", self._queue.qsize())
        return future

    # ------------------------------------------------------------------
    # Batching + execution
    # ------------------------------------------------------------------
    async def _batch_loop(self) -> None:
        # Work-conserving: a batch is the first request plus whatever
        # queued behind it, closed as soon as the queue is empty. Batches
        # run one at a time, so requests arriving during one batch's
        # execution form the next.
        assert self._queue is not None
        while True:
            batch = [await self._queue.get()]
            while len(batch) < self.config.batch_max and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            try:
                await self._process(batch)
            finally:
                for _ in batch:
                    self._queue.task_done()

    async def _process(self, batch: List[_Pending]) -> None:
        loop = asyncio.get_running_loop()
        now = loop.time()
        live: List[_Pending] = []
        for pending in batch:
            if now - pending.arrival > self.config.request_timeout_s:
                self.metrics.count("serve.timeout")
                self._resolve(
                    pending,
                    CaptureResponse(
                        pending.request.request_id,
                        "timeout",
                        detail=(
                            f"queued {now - pending.arrival:.3f}s > "
                            f"{self.config.request_timeout_s}s budget"
                        ),
                        latency_s=now - pending.arrival,
                    ),
                )
            else:
                live.append(pending)
        if not live:
            return

        groups: Dict[Tuple[int, int, int], List[_Pending]] = {}
        for pending in live:
            request = pending.request
            key = (request.device, request.scene, request.repeat)
            groups.setdefault(key, []).append(pending)
        self.metrics.count("serve.coalesced", len(live) - len(groups))
        self.metrics.count("serve.batches")
        self.metrics.gauge("serve.batch_size", len(live))
        units = [
            self.unit_for(pendings[0].request) for pendings in groups.values()
        ]
        try:
            results = await loop.run_in_executor(None, self._execute, units)
        except Exception as exc:  # keep the batcher alive; answer everyone
            self.metrics.count("serve.errors", len(live))
            for pendings in groups.values():
                for pending in pendings:
                    self._resolve(
                        pending,
                        CaptureResponse(
                            pending.request.request_id,
                            "error",
                            detail=f"{type(exc).__name__}: {exc}",
                        ),
                    )
            return
        done = loop.time()
        for pendings, result in zip(groups.values(), results):
            for pending in pendings:
                latency = done - pending.arrival
                self.metrics.count("serve.completed")
                self.metrics.observe("serve.latency_ms", latency * 1e3)
                self._resolve(
                    pending, self._ok_response(pending.request, result, latency)
                )

    def _execute(self, units: List[CaptureUnit]) -> List[_UnitResult]:
        """Worker-thread stage: capture fan-out, then per-unit inference.

        ``predict_one`` per payload — never a batched forward over the
        coalesced group — so each result depends only on its own unit.
        """
        payloads = self.executor.run(units)
        return [self._result_from_payload(payload) for payload in payloads]

    @staticmethod
    def _resolve(pending: _Pending, response: CaptureResponse) -> None:
        if not pending.future.done():
            pending.future.set_result(response)
