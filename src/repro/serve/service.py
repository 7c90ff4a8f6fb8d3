"""The streaming ingestion service: bounded queue → batcher → executor.

:class:`IngestService` turns the one-shot capture pipeline into a
long-running asyncio service. Requests name coordinates into
server-owned state — device *d* of a seeded
:func:`~repro.fleet.population.generate_devices` population photographs
displayed scene *s*, repeat *r* — and flow through four stages:

1. **Admission** (:meth:`IngestService.submit`) — synchronous and
   non-blocking. A full queue *sheds* the request immediately with a
   counted ``serve.shed`` (explicit backpressure: the open-loop load
   generator never blocks, the service never buffers unboundedly); a
   draining service rejects with ``serve.rejected_draining``;
   out-of-range coordinates reject with ``serve.invalid``. Everything
   admitted increments ``serve.accepted`` and is *guaranteed a terminal
   response* — completed, timed out, or errored — which is the
   accounting invariant :meth:`accounting` checks.
2. **Batching** — a single, work-conserving batcher task takes every
   request already queued (up to ``batch_max``) the moment the previous
   batch finishes, never waiting for more, and coalesces duplicates:
   requests with equal ``(device, scene, repeat)`` coordinates map to
   one :class:`~repro.runner.units.CaptureUnit` (equal coordinates ⇒
   equal unit ⇒ equal cache key), executed once and fanned back to
   every requester (``serve.coalesced``). Requests
   whose ``request_timeout_s`` deadline passed while queued are answered
   ``timeout`` instead of executed.
3. **Execution** — the batch's unique units run through the same
   :class:`~repro.runner.executor.FleetExecutor` (and optional
   :class:`~repro.runner.cache.CaptureCache`) as every offline study,
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
4. **Metrics** — every event is recorded into the *current window*
   :class:`~repro.obs.metrics.MetricsRegistry`; a window task rolls the
   window every ``window_s`` seconds by snapshotting it and folding the
   snapshot into the cumulative registry via
   :meth:`~repro.obs.metrics.MetricsRegistry.merge` — the windowed
   streaming aggregation that merge associativity exists for. Totals
   are therefore *derived from window merges*, not double-counted, and
   any grouping of windows merges to the same cumulative state.

Shutdown is a **graceful drain** (:meth:`drain`): admission closes,
everything already accepted is answered, background tasks stop, the
open window folds in, and the final accounting is returned.

Wall-clock reads here steer scheduling and reported latencies only —
payload bits all come from the pure capture path, which
``tests/serve/test_identity.py`` pins to the serial reference.
"""

from __future__ import annotations

import asyncio
import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..devices.runtime import DeviceRuntime
from ..fleet.population import FleetSpec, SyntheticDevice, generate_devices
from ..imaging.image import ImageBuffer
from ..lab.rig import CaptureRig, DisplayedImage
from ..nn.model import Model, micro_mobilenet
from ..obs.metrics import MetricsRegistry
from ..runner.cache import CaptureCache
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit, execute_unit, unit_cache_key
from ..scenes.dataset import build_dataset
from ..scenes.objects import ALL_CLASSES
from ..scenes.screen import Screen

__all__ = [
    "STATUSES",
    "ServeConfig",
    "CaptureRequest",
    "CaptureResponse",
    "IngestService",
    "latency_summary",
    "shard_of_key",
]

#: Terminal request statuses. Exactly one is attached to every submit().
STATUSES = ("ok", "shed", "timeout", "draining", "invalid", "error")

#: Exact-latency samples kept for percentile reporting; beyond this the
#: run-level percentiles are computed over the first N samples (the
#: histogram metric keeps counting exactly). Bounds service memory.
LATENCY_KEEP = 1_000_000


def latency_summary(latencies: Sequence[float]) -> Dict[str, float]:
    """Nearest-rank percentile summary of a latency sample, in ms.

    Returns ``{"count", "mean_ms", "p50_ms", "p95_ms", "p99_ms",
    "max_ms"}``; an empty sample returns ``{"count": 0}``.
    """
    if not latencies:
        return {"count": 0}
    data = sorted(latencies)

    def rank(p: float) -> float:
        idx = max(0, min(len(data) - 1, math.ceil(p / 100.0 * len(data)) - 1))
        return data[idx] * 1e3

    return {
        "count": len(data),
        "mean_ms": sum(data) / len(data) * 1e3,
        "p50_ms": rank(50),
        "p95_ms": rank(95),
        "p99_ms": rank(99),
        "max_ms": data[-1] * 1e3,
    }


def shard_of_key(key: str, shard_count: int) -> int:
    """Map a capture-cache key to a shard, aligned with the cache's own
    two-hex-character directory sharding (``<dir>/<key[:2]>/...``)."""
    if shard_count < 1:
        raise ValueError("shard_count must be >= 1")
    return int(key[:2], 16) % shard_count


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
        with equal seeds share capture-cache entries.
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
        Streaming-metrics window length; ``0`` disables the periodic
        window task (windows then roll only at :meth:`drain`).
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
    window_s: float = 5.0
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
        if self.window_s < 0:
            raise ValueError("window_s must be >= 0")
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
    cache:
        Optional shared :class:`CaptureCache`; also used for
        :meth:`warm` and by the rig's radiance cache.
    spec:
        Optional :class:`FleetSpec` overriding the default vendor
        catalog.
    """

    def __init__(
        self,
        config: ServeConfig,
        model: Optional[Model] = None,
        cache: Optional[CaptureCache] = None,
        spec: Optional[FleetSpec] = None,
    ) -> None:
        self.config = config
        self.cache = cache
        self.devices: List[SyntheticDevice] = generate_devices(
            config.fleet_size, seed=config.seed, spec=spec
        )
        dataset = build_dataset(
            per_class=max(1, math.ceil(config.scenes / 5)), seed=config.seed
        )
        rig = CaptureRig(screen=Screen(seed=config.seed), angles=(0.0,), cache=cache)
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
        self.executor = FleetExecutor(workers=config.workers, cache=cache)

        # Streaming metrics: events land in the current window; the
        # cumulative registry is built purely by merging window
        # snapshots (see _roll_window).
        self.metrics = MetricsRegistry()
        self._window = MetricsRegistry()
        self._window_latencies: List[float] = []
        self._latencies: List[float] = []
        self._windows_rolled = 0
        self._window_started = 0.0
        self._started_at: Optional[float] = None
        self._drained_at: Optional[float] = None

        self._queue: Optional[asyncio.Queue] = None
        self._accepting = False
        self._batcher_task: Optional[asyncio.Task] = None
        self._window_task: Optional[asyncio.Task] = None
        #: Called with each rolled window's summary dict (CLI/server
        #: wire this to a log line / JSONL sink). Side-band only.
        self.on_window: Optional[Callable[[Dict], None]] = None

    # ------------------------------------------------------------------
    # Request → unit (the deterministic core)
    # ------------------------------------------------------------------
    def unit_for(self, request: CaptureRequest) -> CaptureUnit:
        """The :class:`CaptureUnit` a request's coordinates name.

        Identical to the population study's unit construction — same
        entropy derivation, same profile, same radiance — so the service
        shares cache entries with offline studies at equal seeds.
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
    # Metrics plumbing
    # ------------------------------------------------------------------
    def _count(self, name: str, n: float = 1) -> None:
        self._window.count(name, n)

    def _observe_latency(self, latency: float) -> None:
        self._window.observe("serve.latency_ms", latency * 1e3)
        self._window_latencies.append(latency)
        if len(self._latencies) < LATENCY_KEEP:
            self._latencies.append(latency)

    def _roll_window(self, now: float) -> Dict:
        """Close the current window: fold its snapshot into the
        cumulative registry (the ``merge`` streaming-aggregation step)
        and return the window's summary."""
        snapshot = self._window.snapshot()
        self._window = MetricsRegistry()
        window_latencies = self._window_latencies
        self._window_latencies = []
        self.metrics.merge(snapshot)
        duration = max(now - self._window_started, 1e-9)
        self._window_started = now
        self._windows_rolled += 1
        counters = snapshot.get("counters", {})
        completed = counters.get("serve.completed", 0)
        summary = {
            "window": self._windows_rolled,
            "duration_s": duration,
            "completed": completed,
            "accepted": counters.get("serve.accepted", 0),
            "shed": counters.get("serve.shed", 0),
            "timeout": counters.get("serve.timeout", 0),
            "captures_per_sec": completed / duration,
            "latency": latency_summary(window_latencies),
        }
        return summary

    def stats(self) -> Dict:
        """Cumulative metrics snapshot: rolled windows merged with the
        still-open window (a pure read — nothing rolls)."""
        combined = MetricsRegistry()
        combined.merge(self.metrics.snapshot())
        combined.merge(self._window.snapshot())
        return combined.snapshot()

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

    def run_summary(self) -> Dict:
        """Final run report: accounting + throughput + tail latency."""
        summary = {
            "accounting": self.accounting(),
            "latency": latency_summary(self._latencies),
            "config": {
                "fleet_size": self.config.fleet_size,
                "scenes": self.config.scenes,
                "seed": self.config.seed,
                "queue_capacity": self.config.queue_capacity,
                "batch_max": self.config.batch_max,
                "workers": self.config.workers,
                "model": self.config.model,
            },
        }
        if self._started_at is not None and self._drained_at is not None:
            elapsed = max(self._drained_at - self._started_at, 1e-9)
            summary["elapsed_s"] = elapsed
            summary["captures_per_sec"] = (
                summary["accounting"]["completed"] / elapsed
            )
        return summary

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Begin accepting: spawn the batcher and (optionally) the
        window-roll task. Must run inside an event loop."""
        if self._batcher_task is not None:
            raise RuntimeError("service already started")
        loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._accepting = True
        self._started_at = loop.time()
        self._window_started = loop.time()
        self._drained_at = None
        self._batcher_task = loop.create_task(self._batch_loop())
        if self.config.window_s > 0:
            self._window_task = loop.create_task(self._window_loop())

    async def drain(self) -> Dict:
        """Graceful shutdown: refuse new work, answer all accepted work.

        Idempotent. Returns the final :meth:`accounting` (with
        ``balanced`` asserting the conservation invariant).
        """
        self._accepting = False
        if self._queue is not None:
            await self._queue.join()
        for task in (self._batcher_task, self._window_task):
            if task is not None:
                task.cancel()
                await asyncio.gather(task, return_exceptions=True)
        self._batcher_task = None
        self._window_task = None
        loop = asyncio.get_running_loop()
        if self._drained_at is None:
            self._drained_at = loop.time()
        self._roll_window(loop.time())
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
            self._count("serve.invalid")
            future.set_result(
                CaptureResponse(request.request_id, "invalid", detail=problem)
            )
            return future
        if not self._accepting or self._queue is None:
            self._count("serve.rejected_draining")
            future.set_result(
                CaptureResponse(
                    request.request_id, "draining", detail="service is draining"
                )
            )
            return future
        if self._queue.qsize() >= self.config.queue_capacity:
            self._count("serve.shed")
            future.set_result(
                CaptureResponse(
                    request.request_id,
                    "shed",
                    detail=f"queue full ({self.config.queue_capacity})",
                )
            )
            return future
        self._count("serve.accepted")
        self._queue.put_nowait(_Pending(request, loop.time(), future))
        self._window.gauge("serve.queue_depth", self._queue.qsize())
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
                self._count("serve.timeout")
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
        self._count("serve.coalesced", len(live) - len(groups))
        self._count("serve.batches")
        self._window.gauge("serve.batch_size", len(live))
        units = [
            self.unit_for(pendings[0].request) for pendings in groups.values()
        ]
        try:
            results = await loop.run_in_executor(None, self._execute, units)
        except Exception as exc:  # keep the batcher alive; answer everyone
            self._count("serve.errors", len(live))
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
                self._count("serve.completed")
                self._observe_latency(latency)
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

    async def _window_loop(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            await asyncio.sleep(self.config.window_s)
            summary = self._roll_window(loop.time())
            if self.on_window is not None:
                self.on_window(summary)

    # ------------------------------------------------------------------
    # Cache warming
    # ------------------------------------------------------------------
    def warm(
        self, shard_index: int = 0, shard_count: int = 1, repeats: int = 1
    ) -> Dict[str, int]:
        """Pre-populate the capture cache for this service's shard.

        Enumerates every ``(device, scene, repeat < repeats)`` unit the
        service can be asked for, keeps the ones whose cache key falls in
        shard ``shard_index`` of ``shard_count`` (:func:`shard_of_key` —
        aligned with the cache's own directory sharding, so *N* serve
        replicas warming shards ``0..N-1`` of a shared ``--cache-dir``
        partition the keyspace without overlap), and executes the
        not-yet-cached ones through the executor, which writes them
        back. Synchronous; call before :meth:`start`.
        """
        if self.cache is None:
            raise ValueError("cache warming needs an attached CaptureCache")
        if not 0 <= shard_index < shard_count:
            raise ValueError("shard_index must be in [0, shard_count)")
        if repeats < 1:
            raise ValueError("repeats must be >= 1")
        candidates = 0
        mine: List[CaptureUnit] = []
        already = 0
        for device_idx in range(len(self.devices)):
            for scene_idx in range(len(self.displayed)):
                for repeat in range(repeats):
                    candidates += 1
                    unit = self.unit_for(
                        CaptureRequest(-1, device_idx, scene_idx, repeat)
                    )
                    key = unit_cache_key(unit)
                    if shard_of_key(key, shard_count) != shard_index:
                        continue
                    if key in self.cache:
                        already += 1
                    else:
                        mine.append(unit)
        if mine:
            self.executor.run(mine)  # cache-attached: results written back
        return {
            "candidates": candidates,
            "shard_units": already + len(mine),
            "already_cached": already,
            "warmed": len(mine),
        }
