"""Runs one workload: set-ups, timed passes, output checks, metrics.

Untraced run (``trace=False``), the end-to-end metrics:

1. Set up :data:`SETUP_REPEATS` times. Each set-up is the workload's
   ``build`` plus one untimed warm-up pass (first-call work: lookup
   tables, the per-process phone memo). ``setup_s`` is their median.
2. Run timed passes until ``seconds`` have elapsed (and, for latency
   workloads, until the 95th percentile has ten samples beyond it).
   ``captures_per_s`` is the median over passes.
3. Every pass's output digest must equal the first warm-up's; at the
   default seed and size it must also equal the checked-in digest.

Traced run (``trace=True``), the per-layer metrics: one traced set-up,
then untraced and traced passes alternately for ``seconds``. Time and
count metrics cover the set-up plus one traced pass (the mean over traced
passes); ratio and mean metrics cover the traced passes only.
``obs.overhead_ratio`` is the median traced pass wall time over the
median untraced one, and the traced digest must equal the untraced one.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from pathlib import Path
from typing import Dict, List, Optional

from repro import obs

from layers import LAYERS, LayerTracer
from workloads import WORKLOADS

SETUP_REPEATS = 3
DEFAULT_SEED = 0
DIGESTS = Path(__file__).with_name("digests.json")

#: Percentiles reported only with at least this many samples beyond them.
TAIL_SAMPLES = 10

ISP_STAGES = (
    "BlackLevelCorrection",
    "Demosaic",
    "WhiteBalance",
    "ColorCorrection",
    "ToneMap",
    "GammaEncode",
    "Denoise",
    "Sharpen",
    "Resize",
)


def percentile(sorted_values: List[float], p: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    index = max(0, min(len(sorted_values) - 1, math.ceil(p / 100 * len(sorted_values)) - 1))
    return sorted_values[index]


def _enough_tail(latencies: List[float], p: float) -> bool:
    return len(latencies) * (1 - p / 100) >= TAIL_SAMPLES


def peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class LabelClock:
    """Records when each capture's label becomes available in a pass.

    Batch workloads label their captures one inference call at a time
    (per phone in the lab study, per device chunk in the population
    study); a capture's latency is the time from its pass's start to the
    return of the ``DeviceRuntime.predict`` call that labelled it.
    """

    def __init__(self, start: float) -> None:
        self.start = start
        self.latencies: List[float] = []

    def __enter__(self) -> "LabelClock":
        from repro.devices.runtime import DeviceRuntime

        self._original = original = DeviceRuntime.__dict__["predict"]
        clock = self

        def predict(runtime, images):
            predictions = original(runtime, images)
            done = time.perf_counter() - clock.start
            clock.latencies.extend([done] * len(predictions))
            return predictions

        DeviceRuntime.predict = predict
        return self

    def __exit__(self, *exc) -> None:
        from repro.devices.runtime import DeviceRuntime

        DeviceRuntime.predict = self._original


class OutputMismatch(AssertionError):
    """A pass produced different bytes than the reference."""


class Run:
    """One benchmark invocation of one workload."""

    def __init__(self, workload: str, seed: int, seconds: float, size: str = "default",
                 work_dir: Optional[Path] = None) -> None:
        self.workload = WORKLOADS[workload](size, work_dir)
        self.seed = seed
        self.seconds = seconds
        self.size = size
        self.reference: Optional[str] = None
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    # -- output checks --------------------------------------------------
    def _check(self, output) -> None:
        digest = self.workload.digest(output)
        if self.reference is None:
            self.reference = digest
            expected = self._checked_in()
            if expected is not None and digest != expected:
                raise OutputMismatch(
                    f"digest {digest} differs from the checked-in {expected}"
                )
        elif digest != self.reference:
            raise OutputMismatch(f"digest {digest} differs from {self.reference}")

    def _checked_in(self) -> Optional[str]:
        if self.seed != DEFAULT_SEED or self.size != "default":
            return None
        return json.loads(DIGESTS.read_text()).get(self.workload.name)

    def _timed_pass(self, state):
        # Start every pass from a collected heap, so when a full garbage
        # collection lands does not depend on the passes before it.
        gc.collect()
        start = time.perf_counter()
        with LabelClock(start) as clock:
            output = self.workload.run_pass(state)
        wall = time.perf_counter() - start
        self._check(output)
        self.attempted += output.attempted
        self.failed += output.failed
        if not output.latencies_s:
            output.latencies_s = clock.latencies
        return output, wall

    def _set_up(self):
        start = time.perf_counter()
        state = self.workload.build(self.seed)
        output = self.workload.run_pass(state)
        wall = time.perf_counter() - start
        self._check(output)
        return state, output, wall

    # -- untraced: end-to-end metrics -----------------------------------
    def end_to_end(self) -> Dict[str, tuple]:
        setups, state = [], None
        for _ in range(SETUP_REPEATS):
            if state is not None:
                self.workload.close(state)
            state, output, wall = self._set_up()
            setups.append(wall)
        try:
            rates, latencies = [], []
            started = time.perf_counter()
            while True:
                output, wall = self._timed_pass(state)
                rates.append((output.attempted - output.failed) / wall)
                latencies.extend(output.latencies_s)
                if time.perf_counter() - started >= self.seconds and _enough_tail(
                    latencies, 95
                ):
                    break
            self.workload.verify(state, output)
        finally:
            self.workload.close(state)
        ordered = sorted(latencies)
        self.notes.append(
            f"{len(rates)} timed passes at "
            + ", ".join(f"{rate:.1f}" for rate in rates)
            + f" captures/s; {len(ordered)} latency samples; set-ups "
            + ", ".join(f"{wall:.2f}" for wall in setups)
            + " s"
        )
        return {
            "setup_s": (statistics.median(setups), "s"),
            "captures_per_s": (statistics.median(rates), "1/s"),
            "latency_p50_ms": (1e3 * percentile(ordered, 50), "ms"),
            "latency_p95_ms": (1e3 * percentile(ordered, 95), "ms"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }

    # -- traced: per-layer metrics --------------------------------------
    def _traced(self, tracer: LayerTracer, fn):
        """Run ``fn`` with the shims installed (and obs on for pools)."""
        tracer.install()
        try:
            if not self.workload.pooled:
                return fn()
            with obs.observed() as ob:
                result = fn()
            tracer.absorb_worker_spans(ob.tracer.finished())
            return result
        finally:
            tracer.uninstall()

    def per_layer(self) -> Dict[str, tuple]:
        tracer = LayerTracer()
        state, _, setup_wall = self._traced(tracer, self._set_up)
        setup = _Bucket.take(tracer, setup_wall)
        plain, traced = [], []
        try:
            started = time.perf_counter()
            while not traced or time.perf_counter() - started < self.seconds:
                plain.append(self._timed_pass(state)[1])
                output, wall = self._traced(tracer, lambda: self._timed_pass(state))
                traced.append(wall)
            self.workload.verify(state, output)
        finally:
            self.workload.close(state)
        passes = _Bucket.take(tracer, sum(traced), scale=1.0 / len(traced))
        metrics = layer_metrics(setup, passes)
        metrics["obs.overhead_ratio"] = (
            statistics.median(traced) / statistics.median(plain),
            "ratio",
        )
        return metrics

    def measure(self, trace: bool) -> Dict[str, tuple]:
        metrics = self.per_layer() if trace else self.end_to_end()
        self.notes.append(f"output digest {self.reference}")
        return metrics


class _Bucket:
    """Busy times, self times and counts of one phase, in ms and counts."""

    def __init__(self, busy, self_ms, counts, wall_ms) -> None:
        self.busy, self.self_ms, self.counts, self.wall_ms = busy, self_ms, counts, wall_ms

    @classmethod
    def take(cls, tracer: LayerTracer, wall_s: float, scale: float = 1.0) -> "_Bucket":
        bucket = cls(
            {k: 1e3 * v * scale for k, v in tracer.busy.items()},
            {k: 1e3 * v * scale for k, v in tracer.self_time.items()},
            {k: v * scale for k, v in tracer.counts.items()},
            1e3 * wall_s * scale,
        )
        tracer.reset()
        return bucket


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(setup: _Bucket, passes: _Bucket) -> Dict[str, tuple]:
    """The per-layer table: one set-up plus one traced pass."""

    def busy(key):
        return (setup.busy.get(key, 0.0) + passes.busy.get(key, 0.0), "ms")

    def count(name, unit="count"):
        return (setup.counts.get(name, 0.0) + passes.counts.get(name, 0.0), unit)

    pc = passes.counts.get
    m: Dict[str, tuple] = {}
    m["isp.busy_ms"] = busy("isp")
    m["isp.frames"] = count("isp.frames")
    for stage in ISP_STAGES:
        m[f"isp.{stage}.busy_ms"] = busy(f"isp.{stage}")
    m["sensor.busy_ms"] = busy("sensor")
    m["sensor.frames"] = count("sensor.frames")
    m["codecs.jpeg.busy_ms"] = busy("codecs.jpeg")
    m["codecs.heif.busy_ms"] = busy("codecs.heif")
    m["codecs.bytes_out"] = count("codecs.bytes_out", "bytes")
    for kernel in ("encode_jpeg_scan", "decode_jpeg_scan", "entropy_deflate", "entropy_inflate"):
        m[f"kernels.{kernel}.busy_ms"] = busy(f"kernels.{kernel}")
    m["nn.busy_ms"] = busy("nn")
    m["nn.frames"] = count("nn.frames")
    m["nn.calls"] = count("nn.calls")
    m["runner.cache.key_ms"] = busy("runner.cache.key")
    m["runner.cache.get_ms"] = busy("runner.cache.get")
    m["runner.cache.put_ms"] = busy("runner.cache.put")
    m["runner.cache.hit_ratio"] = (
        _ratio(pc("runner.cache.hits", 0.0), pc("runner.cache.gets", 0.0)),
        "ratio",
    )
    m["runner.run_ms"] = busy("runner.run")
    m["runner.units"] = count("runner.units")
    m["runner.groups"] = count("runner.groups")
    m["runner.group_size_mean"] = (
        _ratio(pc("runner.group_units", 0.0), pc("runner.groups", 0.0)),
        "count",
    )
    m["runner.pool_starts"] = count("runner.pool_starts")
    m["runner.pool_wait_ms"] = busy("runner.pool")
    m["devices.phones_built"] = count("devices.phones_built")
    m["devices.phone_build_ms"] = busy("devices.phone_build")
    m["fleet.generate_ms"] = busy("fleet.generate")
    m["fleet.aggregate_ms"] = busy("fleet.aggregate")
    m["scenes.present_ms"] = busy("scenes.present")
    m["scenes.images"] = count("scenes.images")
    m["core.busy_ms"] = busy("core")
    m["serve.execute_ms"] = busy("serve.execute")
    m["serve.batch_window_ms"] = busy("serve.batch_window")
    m["serve.queue_wait_ms"] = (
        1e3 * _ratio(pc("serve.queue_wait_s", 0.0), pc("serve.batched_requests", 0.0)),
        "ms",
    )
    m["serve.batch_size_mean"] = (
        _ratio(pc("serve.batched_requests", 0.0), pc("serve.batches", 0.0)),
        "count",
    )
    m["serve.coalesced"] = count("serve.coalesced")
    attributed = 0.0
    for layer in LAYERS:
        self_ms = setup.self_ms.get(layer, 0.0) + passes.self_ms.get(layer, 0.0)
        m[f"{layer}.self_ms"] = (self_ms, "ms")
        attributed += self_ms
    total = setup.wall_ms + passes.wall_ms
    m["traced_total_ms"] = (total, "ms")
    m["unattributed_ms"] = (total - attributed, "ms")
    return m
