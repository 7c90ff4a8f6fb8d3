"""Per-layer wall-time accounting for the benchmark's traced runs.

:class:`LayerTracer` wraps the public entry points of each ``repro``
module (listed in :func:`_targets`) with timing shims installed from the
benchmark's own code; nothing under ``src/`` is edited. Each wrapped call
is one span keyed ``<layer>.<detail>`` (``isp.Demosaic``, ``codecs.jpeg``,
``runner.cache.get``); the layer is the first dotted component, one of
:data:`LAYERS`.

Two figures come out of the spans:

* ``busy`` — the inclusive wall time of each key, counting a key nested
  inside itself once;
* ``self`` — per layer, span time minus the time of the spans it encloses
  on the same thread. Self times of all layers plus the benchmark's own
  unattributed time add up to the traced wall time.

Work done inside process-pool workers cannot be timed from the parent.
Pool workers are forked after the shims are installed, so the shims run
there too; in a worker they open ``repro.obs`` spans named
``perfbench:<key>`` instead, which the executor ships back with each
group's result (it does so whenever an observer is active in the parent).
:meth:`LayerTracer.absorb_worker_spans` folds those into ``busy`` and the
counters; worker time never enters the self-time accounting, because it
runs beside the parent's wall clock, not inside it.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import importlib
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

LAYERS = (
    "scenes",
    "fleet",
    "devices",
    "sensor",
    "isp",
    "codecs",
    "kernels",
    "runner",
    "nn",
    "core",
    "serve",
)

WORKER_PREFIX = "perfbench:"

CountFn = Optional[Callable[[tuple, dict, object], Dict[str, float]]]


def _frames(images) -> int:
    return len(images) if isinstance(images, (list, tuple)) else 1


class LayerTracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[object, str, object]] = []
        self.installed = False
        self.reset()

    # -- recording ------------------------------------------------------
    def reset(self) -> None:
        """Forget every recorded span and count."""
        with self._lock:
            self.busy: Dict[str, float] = defaultdict(float)
            self.self_time: Dict[str, float] = defaultdict(float)
            self.counts: Dict[str, float] = defaultdict(float)

    def _frames_stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def enter(self, key: str) -> list:
        frame = [key, time.perf_counter(), 0.0]
        self._frames_stack().append(frame)
        return frame

    def exit(self, frame: list) -> None:
        duration = time.perf_counter() - frame[1]
        stack = self._frames_stack()
        stack.pop()
        key = frame[0]
        nested = any(outer[0] == key for outer in stack)
        with self._lock:
            self.self_time[key.split(".", 1)[0]] += duration - frame[2]
            if not nested:
                self.busy[key] += duration
        if stack:
            stack[-1][2] += duration

    def add_span(self, key: str, seconds: float) -> None:
        """Account a leaf span timed elsewhere (no shim around it)."""
        with self._lock:
            self.self_time[key.split(".", 1)[0]] += seconds
            self.busy[key] += seconds
        stack = self._frames_stack()
        if stack:
            stack[-1][2] += seconds

    def wrap(self, fn: Callable, key: str, counter: CountFn = None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if not tracer.installed:
                return fn(*args, **kwargs)
            if os.getpid() != tracer.pid:
                return _worker_call(fn, key, counter, args, kwargs)
            frame = tracer.enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.exit(frame)
            if counter is not None:
                for name, n in counter(args, kwargs, result).items():
                    tracer.count(name, n)
            return result

        return shim

    # -- pool workers ---------------------------------------------------
    def absorb_worker_spans(self, spans: Iterable) -> None:
        """Fold ``perfbench:*`` spans shipped back by pool workers."""
        spans = [s for s in spans if s.name.startswith(WORKER_PREFIX)]
        by_id = {s.span_id: s for s in spans}
        with self._lock:
            for span in spans:
                key = span.name[len(WORKER_PREFIX):]
                parent = by_id.get(span.parent_id)
                nested = False
                while parent is not None:
                    if parent.name == span.name:
                        nested = True
                        break
                    parent = by_id.get(parent.parent_id)
                if not nested:
                    self.busy[key] += span.duration
                for name, n in span.attrs.items():
                    if isinstance(n, (int, float)):
                        self.counts[name] += n

    # -- patching -------------------------------------------------------
    def _patch(self, owner, attr: str, key: str, counter: CountFn = None) -> None:
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, key, counter))

    def install(self) -> None:
        """Install every shim; :meth:`uninstall` restores the originals."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        for owner, attr, key, counter in _targets():
            self._patch(owner, attr, key, counter)
        self._install_codecs()
        self._install_pool()
        self._install_serve()
        self.installed = True

    def uninstall(self) -> None:
        from repro.codecs import registry
        from repro.runner import units

        self.installed = False
        for owner, attr, original in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._undo.clear()
        # Phones built while installed picked up wrapped codecs too.
        for phone in units._PHONE_MEMO.values():
            phone._codec = registry._REGISTRY[phone._codec.name]

    def _install_codecs(self) -> None:
        # Codecs are frozen dataclasses held by the registry and by every
        # Phone built so far (``Phone._codec``); swap in wrapped copies.
        from repro.codecs import registry
        from repro.runner import units

        def bytes_out(args, kwargs, result):
            return {"codecs.bytes_out": len(result)}

        wrapped = {}
        for name, codec in list(registry._REGISTRY.items()):
            wrapped[name] = dataclasses.replace(
                codec,
                encode=self.wrap(codec.encode, f"codecs.{name}", bytes_out),
                decode=self.wrap(codec.decode, f"codecs.{name}"),
            )
            self._undo.append((registry._REGISTRY, name, codec))
        registry._REGISTRY.update(wrapped)
        for phone in units._PHONE_MEMO.values():
            phone._codec = wrapped[phone._codec.name]

    def _install_pool(self) -> None:
        from repro.runner import executor

        tracer = self
        base = executor.ProcessPoolExecutor

        class CountingPool(base):
            """Counts pool start-ups; times each pool from start to join."""

            def __init__(self, *args, **kwargs):
                tracer.count("runner.pool_starts")
                self._perfbench_frame = tracer.enter("runner.pool")
                super().__init__(*args, **kwargs)

            def shutdown(self, *args, **kwargs):
                try:
                    super().shutdown(*args, **kwargs)
                finally:
                    frame, self._perfbench_frame = self._perfbench_frame, None
                    if frame is not None:
                        tracer.exit(frame)

        self._undo.append((executor, "ProcessPoolExecutor", base))
        executor.ProcessPoolExecutor = CountingPool

    def _install_serve(self) -> None:
        from repro.serve.service import IngestService

        tracer = self
        original = IngestService.__dict__["_process"]

        @functools.wraps(original)
        async def process(service, batch):
            now = asyncio.get_running_loop().time()
            # The batch window: from the first queued arrival to the batch
            # closing. Under a closed loop nothing else runs meanwhile.
            tracer.add_span("serve.batch_window", now - min(p.arrival for p in batch))
            keys = {(p.request.device, p.request.scene, p.request.repeat) for p in batch}
            tracer.count("serve.batches")
            tracer.count("serve.batched_requests", len(batch))
            tracer.count("serve.coalesced", len(batch) - len(keys))
            tracer.count(
                "serve.queue_wait_s", sum(now - p.arrival for p in batch)
            )
            return await original(service, batch)

        self._undo.append((IngestService, "_process", original))
        IngestService._process = process


def _worker_call(fn, key, counter, args, kwargs):
    from repro import obs

    if obs.active() is None:
        return fn(*args, **kwargs)
    with obs.span(WORKER_PREFIX + key) as span:
        result = fn(*args, **kwargs)
        if counter is not None:
            span.set(**counter(args, kwargs, result))
    return result


def _targets():
    """``(owner, attribute, key, counter)`` for every plain shim."""
    from repro import kernels
    from repro.devices.phone import Phone
    from repro.devices.runtime import DeviceRuntime
    from repro.fleet import studies
    from repro.isp.pipeline import ISPPipeline
    from repro.isp.stages import ISPStage
    from repro.lab.rig import CaptureRig
    from repro.runner import executor, units
    from repro.runner.cache import CaptureCache
    from repro.runner.executor import FleetExecutor
    from repro.scenes import dataset
    from repro.serve import service
    from repro.serve.service import IngestService

    core_metrics = importlib.import_module("repro.core.instability")

    def one(name):
        return lambda a, k, r: {name: 1}

    def sized(name, arg):
        return lambda a, k, r: {name: len(a[arg])}

    targets = [
        (CaptureRig, "present", "scenes.present", lambda a, k, r: {"scenes.images": len(r)}),
        (dataset, "build_dataset", "scenes.dataset", None),
        (studies, "build_dataset", "scenes.dataset", None),
        (service, "build_dataset", "scenes.dataset", None),
        (studies, "generate_devices", "fleet.generate", None),
        (service, "generate_devices", "fleet.generate", None),
        (studies, "aggregate_tables", "fleet.aggregate", None),
        (studies, "population_summary", "fleet.aggregate", None),
        (studies, "run_population_study", "fleet.study", None),
        (Phone, "__init__", "devices.phone_build", one("devices.phones_built")),
        (Phone, "capture_raw", "sensor", one("sensor.frames")),
        (Phone, "capture_raw_batch", "sensor", sized("sensor.frames", 2)),
        (ISPPipeline, "process", "isp", one("isp.frames")),
        (ISPPipeline, "process_batch", "isp", sized("isp.frames", 1)),
        (units, "jpeg_roundtrip_batch", "codecs.jpeg",
         lambda a, k, r: {"codecs.bytes_out": sum(len(d) for d, _ in r)}),
        (units, "decode_any", "codecs.decode_any", None),
        (FleetExecutor, "run", "runner.run", sized("runner.units", 1)),
        (executor, "unit_cache_key", "runner.cache.key", None),
        (executor, "execute_unit_group", "runner.group", _group_counter),
        (units, "execute_unit_group", "runner.group", _group_counter),
        (CaptureCache, "get", "runner.cache.get", _cache_get_counter),
        (CaptureCache, "put", "runner.cache.put", None),
        (DeviceRuntime, "predict", "nn",
         lambda a, k, r: {"nn.frames": _frames(a[1]), "nn.calls": 1}),
        (core_metrics, "instability", "core", None),
        (core_metrics, "accuracy", "core", None),
        (IngestService, "_execute", "serve.execute", None),
    ]
    for stage in ISPStage.__subclasses__():
        for method in ("process", "process_batch"):
            if method in stage.__dict__:
                targets.append((stage, method, f"isp.{stage.__name__}", None))
    for name in (
        "encode_jpeg_scan",
        "decode_jpeg_scan",
        "entropy_deflate",
        "entropy_inflate",
        "png_filter_scanlines",
        "pack_coefficients",
        "unpack_coefficients",
    ):
        targets.append((kernels, name, f"kernels.{name}", None))
    return targets


def _group_counter(args, kwargs, result):
    return {"runner.groups": 1, "runner.group_units": len(result)}


def _cache_get_counter(args, kwargs, result):
    return {"runner.cache.gets": 1, "runner.cache.hits": int(result is not None)}
