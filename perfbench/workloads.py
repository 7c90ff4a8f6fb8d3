"""The benchmark's workloads over the scene -> instability-report pipeline.

Each workload is a class with four steps:

* ``build(seed)`` — the set-up before the first pass: inputs, devices,
  model, rendered scenes, any cache fill. Returns the workload state.
* ``run_pass(state)`` — one timed pass of fixed, seed-determined work.
  Returns a :class:`PassOutput`; nothing is hashed inside the pass.
* ``digest(output)`` — SHA-256 over everything the pass produced.
* ``verify(state, output)`` — independent checks against the program's
  reference paths (the per-unit executor, the serial serve oracle).
  ``close(state)`` releases what ``build`` acquired and runs the checks
  that only hold at the end (serve accounting).

Every workload uses the seeded untrained ``micro_mobilenet(8, seed=1)``:
inference cost does not depend on the weights, and a trained model would
need a training run in set-up. The inputs come only from ``seed`` and the
workload's size; a tiny size exists for the benchmark's own tests.
"""

from __future__ import annotations

import asyncio
import hashlib
import importlib
import itertools
import json
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from repro.core.records import ExperimentResult
from repro.devices.profiles import capture_fleet
from repro.devices.runtime import DeviceRuntime
from repro.fleet import studies
from repro.imaging.image import ImageBuffer
from repro.lab.common import make_record
from repro.lab.rig import DEFAULT_ANGLES, CaptureRig
from repro.nn.model import micro_mobilenet
from repro.runner.cache import CaptureCache
from repro.runner.executor import FleetExecutor
from repro.runner.seeds import unit_entropy
from repro.runner.units import CaptureUnit, execute_unit
from repro.scenes import dataset as scene_dataset
from repro.scenes.objects import ALL_CLASSES
from repro.scenes.screen import Screen
from repro.serve.service import CaptureRequest, IngestService, ServeConfig

#: ``repro.core`` re-exports the function under the module's name.
core_metrics = importlib.import_module("repro.core.instability")

#: Inference chunk size, as in the lab experiments and fleet studies.
INFERENCE_BATCH = 64


def untrained_model():
    """The benchmark's classifier (the ``bench --serve`` model)."""
    return micro_mobilenet(num_classes=len(ALL_CLASSES), seed=1)


@dataclass
class PassOutput:
    """What one pass produced, plus its operation counts."""

    attempted: int
    failed: int
    values: Dict[str, object]
    latencies_s: List[float] = field(default_factory=list)


class _Hasher:
    """Feeds arrays, sizes and canonical JSON into one SHA-256."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def array(self, value) -> None:
        arr = np.ascontiguousarray(value)
        self._h.update(f"{arr.dtype.str}{arr.shape}".encode())
        self._h.update(arr.tobytes())

    def json(self, value) -> None:
        self._h.update(json.dumps(value, sort_keys=True, default=_plain).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _plain(value):
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot hash {type(value).__name__}")


# ----------------------------------------------------------------------
# lab_repeats / cache_replay: the §4 study with repeat shots
# ----------------------------------------------------------------------
@dataclass
class LabState:
    units: List[CaptureUnit]
    meta: list
    profiles: list
    runtime: DeviceRuntime
    executor: FleetExecutor
    cache_dir: Optional[Path] = None


def _lab_inputs(seed: int, scenes: int, repeats: int):
    """The capture fleet x displayed scenes x rig angles x repeat shots."""
    items = list(scene_dataset.build_dataset(per_class=1, seed=seed))[:scenes]
    rig = CaptureRig(screen=Screen(seed=seed), angles=DEFAULT_ANGLES)
    displayed = rig.present(items)
    profiles = capture_fleet()
    units, meta = [], []
    for profile in profiles:
        for shown in displayed:
            for repeat in range(repeats):
                units.append(
                    CaptureUnit(
                        kind="photograph",
                        profile=profile,
                        radiance=shown.radiance.pixels,
                        entropy=unit_entropy(seed, profile.name, shown.image_id, repeat),
                    )
                )
                meta.append((shown, repeat))
    return units, meta, profiles


def _lab_pass(state: LabState) -> PassOutput:
    payloads = state.executor.run(state.units)
    result = ExperimentResult([], name="end_to_end")
    per_phone = len(state.units) // len(state.profiles)
    rankings = []
    for p, profile in enumerate(state.profiles):
        chunk = slice(p * per_phone, (p + 1) * per_phone)
        predictions = state.runtime.predict(
            [ImageBuffer(payload["pixels"]) for payload in payloads[chunk]]
        )
        rankings.extend(prediction.ranking for prediction in predictions)
        result.extend(
            make_record(prediction, shown, environment=profile.name, repeat=repeat)
            for prediction, (shown, repeat) in zip(predictions, state.meta[chunk])
        )
    return PassOutput(
        attempted=len(state.units),
        failed=0,
        values={
            "payloads": payloads,
            "rankings": rankings,
            "instability": core_metrics.instability(result),
            "accuracy": core_metrics.accuracy(result),
        },
    )


def _lab_digest(output: PassOutput) -> str:
    h = _Hasher()
    for payload in output.values["payloads"]:
        h.array(payload["pixels"])
        h.array(payload["encoded_size"])
    h.json(
        {
            "rankings": output.values["rankings"],
            "instability": output.values["instability"],
            "accuracy": output.values["accuracy"],
        }
    )
    return h.hexdigest()


def _spot_check_units(units: List[CaptureUnit], payloads: list, indices) -> None:
    """Fused/cached payloads must equal the per-unit reference path."""
    for i in indices:
        expected = execute_unit(units[i])
        for name in ("pixels", "encoded_size"):
            if np.asarray(expected[name]).tobytes() != np.asarray(payloads[i][name]).tobytes():
                raise AssertionError(f"unit {i}: {name} differs from execute_unit")


def _lab_spot_indices(state: LabState, repeats: int) -> List[int]:
    per_phone = len(state.units) // len(state.profiles)
    first_group = range(min(repeats, len(state.units)))
    first_of_each_phone = range(0, len(state.units), per_phone)
    return sorted(set(first_group) | set(first_of_each_phone))


class LabRepeats:
    """The 5 capture phones x scenes x 5 rig angles x 8 repeat shots."""

    name = "lab_repeats"
    sizes = {"default": {"scenes": 1, "repeats": 8}, "tiny": {"scenes": 1, "repeats": 2}}
    pooled = False

    def __init__(self, size: str = "default", work_dir: Optional[Path] = None) -> None:
        self.size = dict(self.sizes[size])

    def build(self, seed: int) -> LabState:
        units, meta, profiles = _lab_inputs(seed, self.size["scenes"], self.size["repeats"])
        runtime = DeviceRuntime(untrained_model(), batch_size=INFERENCE_BATCH)
        return LabState(units, meta, profiles, runtime, FleetExecutor(workers=0))

    run_pass = staticmethod(_lab_pass)
    digest = staticmethod(_lab_digest)

    def verify(self, state: LabState, output: PassOutput) -> None:
        indices = _lab_spot_indices(state, self.size["repeats"])
        _spot_check_units(state.units, output.values["payloads"], indices)

    def close(self, state: LabState) -> None:
        pass


class CacheReplay(LabRepeats):
    """The lab_repeats study re-run against a warm on-disk capture cache."""

    name = "cache_replay"

    def __init__(self, size: str = "default", work_dir: Optional[Path] = None) -> None:
        super().__init__(size)
        if work_dir is None:
            raise ValueError("cache_replay needs a work directory")
        self.work_dir = Path(work_dir)
        self._fills = itertools.count()

    def build(self, seed: int) -> LabState:
        state = super().build(seed)
        state.cache_dir = self.work_dir / f"capture-cache-{next(self._fills)}"
        # Fill: every unit misses, executes, and is written to disk.
        fill = FleetExecutor(workers=0, cache=CaptureCache(state.cache_dir))
        fill.run(state.units)
        if fill.cache.stats.stores != len(state.units):
            raise AssertionError("cache fill did not store every unit")
        # Flush the fill to disk now, so its writeback does not run
        # during the timed passes.
        for path in state.cache_dir.rglob("*.npz"):
            fd = os.open(path, os.O_RDONLY)
            try:
                os.fsync(fd)
            finally:
                os.close(fd)
        return state

    def run_pass(self, state: LabState) -> PassOutput:
        # A fresh cache object per pass: empty memory layer, so every
        # unit is read back from disk.
        state.executor = FleetExecutor(workers=0, cache=CaptureCache(state.cache_dir))
        output = _lab_pass(state)
        stats = state.executor.cache.stats
        output.failed = stats.misses
        output.values["cache_hits"] = stats.hits
        return output

    def verify(self, state: LabState, output: PassOutput) -> None:
        if output.values["cache_hits"] != len(state.units) or output.failed:
            raise AssertionError(
                f"cache_replay read {output.values['cache_hits']} of "
                f"{len(state.units)} units from disk"
            )
        super().verify(state, output)

    def close(self, state: LabState) -> None:
        if state.cache_dir is not None:
            shutil.rmtree(state.cache_dir, ignore_errors=True)


# ----------------------------------------------------------------------
# population_pooled: run_population_study on a process pool
# ----------------------------------------------------------------------
@dataclass
class PopulationState:
    seed: int
    model: object


class PopulationPooled:
    """Generated devices x scenes x 1 repeat through a 2-worker pool."""

    name = "population_pooled"
    sizes = {
        "default": {"devices": 128, "scenes": 4, "workers": 2},
        "tiny": {"devices": 6, "scenes": 2, "workers": 2},
    }
    pooled = True

    def __init__(self, size: str = "default", work_dir: Optional[Path] = None) -> None:
        self.size = dict(self.sizes[size])

    def build(self, seed: int) -> PopulationState:
        return PopulationState(seed=seed, model=untrained_model())

    def run_pass(self, state: PopulationState) -> PassOutput:
        outcome = studies.run_population_study(
            fleet_size=self.size["devices"],
            seed=state.seed,
            scenes=self.size["scenes"],
            repeats=1,
            workers=self.size["workers"],
            model=state.model,
        )
        return PassOutput(
            attempted=outcome.store.rows,
            failed=0,
            values={"outcome": outcome},
        )

    def digest(self, output: PassOutput) -> str:
        outcome = output.values["outcome"]
        h = _Hasher()
        for table in outcome.store.iter_tables():
            h.array(table)
        h.json(outcome.summary)
        return h.hexdigest()

    def verify(self, state: PopulationState, output: PassOutput) -> None:
        outcome = output.values["outcome"]
        table = outcome.store.table()
        dataset_items = list(
            scene_dataset.build_dataset(per_class=1, seed=state.seed)
        )
        rig = CaptureRig(screen=Screen(seed=state.seed), angles=(0.0,))
        shown = rig.present(dataset_items)[0]
        for device_index in sorted({0, len(outcome.devices) - 1}):
            device = outcome.devices[device_index]
            unit = CaptureUnit(
                kind="photograph",
                profile=device.profile,
                radiance=shown.radiance.pixels,
                entropy=unit_entropy(state.seed, device.profile.name, shown.image_id, 0),
            )
            row = table[(table["device"] == device_index) & (table["scene"] == 0)]
            expected = int(execute_unit(unit)["encoded_size"])
            if row.size != 1 or int(row["encoded_size"][0]) != expected:
                raise AssertionError(
                    f"device {device_index}: encoded size differs from execute_unit"
                )

    def close(self, state: PopulationState) -> None:
        pass


# ----------------------------------------------------------------------
# serve_closed: an in-process IngestService under a closed loop
# ----------------------------------------------------------------------
@dataclass
class ServeState:
    loop: asyncio.AbstractEventLoop
    service: IngestService
    plans: List[List[CaptureRequest]]
    sent: int = 0


def client_plans(seed: int, clients: int, per_client: int, devices: int, scenes: int):
    """Each client's fixed request sequence, drawn from the seed."""
    plans = []
    for client in range(clients):
        rng = np.random.default_rng([seed, client])
        coords = zip(
            rng.integers(0, devices, per_client),
            rng.integers(0, scenes, per_client),
            rng.integers(0, 2, per_client),
        )
        plans.append(
            [
                CaptureRequest(client * per_client + i, int(d), int(s), int(r))
                for i, (d, s, r) in enumerate(coords)
            ]
        )
    return plans


async def _closed_loop(service: IngestService, plans) -> tuple:
    """Each client sends its next request only after the last answer."""
    responses, latencies = [], []

    async def client(requests):
        for request in requests:
            start = time.perf_counter()
            response = await service.submit(request)
            latencies.append(time.perf_counter() - start)
            responses.append(response)

    await asyncio.gather(*(client(plan) for plan in plans))
    return responses, latencies


class ServeClosed:
    """16 devices x 4 scenes served to 2 closed-loop clients."""

    name = "serve_closed"
    sizes = {
        "default": {"fleet_size": 16, "scenes": 4, "clients": 2, "per_client": 16},
        "tiny": {"fleet_size": 3, "scenes": 2, "clients": 2, "per_client": 3},
    }
    pooled = False

    def __init__(self, size: str = "default", work_dir: Optional[Path] = None) -> None:
        self.size = dict(self.sizes[size])

    def build(self, seed: int) -> ServeState:
        size = self.size
        service = IngestService(
            ServeConfig(
                fleet_size=size["fleet_size"],
                scenes=size["scenes"],
                seed=seed,
                workers=0,
                window_s=0.0,
                model="untrained",
            )
        )
        loop = asyncio.new_event_loop()
        loop.run_until_complete(service.start())
        plans = client_plans(
            seed, size["clients"], size["per_client"], size["fleet_size"], size["scenes"]
        )
        return ServeState(loop=loop, service=service, plans=plans)

    def run_pass(self, state: ServeState) -> PassOutput:
        responses, latencies = state.loop.run_until_complete(
            _closed_loop(state.service, state.plans)
        )
        state.sent += len(responses)
        failed = sum(1 for r in responses if r.status != "ok")
        return PassOutput(
            attempted=len(responses),
            failed=failed,
            values={"responses": responses},
            latencies_s=[
                latency for r, latency in zip(responses, latencies) if r.status == "ok"
            ],
        )

    def digest(self, output: PassOutput) -> str:
        h = _Hasher()
        ordered = sorted(output.values["responses"], key=lambda r: r.request_id)
        h.json([list(r.deterministic_fields()) for r in ordered])
        return h.hexdigest()

    def verify(self, state: ServeState, output: PassOutput) -> None:
        by_id = {r.request_id: r for r in output.values["responses"]}
        sample = [plan[0] for plan in state.plans]
        for expected in state.service.serial_reference(sample):
            got = by_id[expected.request_id]
            if got.deterministic_fields() != expected.deterministic_fields():
                raise AssertionError(
                    f"request {expected.request_id} differs from serial_reference"
                )

    def close(self, state: ServeState) -> None:
        try:
            accounting = state.loop.run_until_complete(state.service.drain())
        finally:
            state.loop.run_until_complete(state.loop.shutdown_default_executor())
            state.loop.close()
        if not accounting["balanced"] or accounting["accepted"] != state.sent:
            raise AssertionError(f"serve accounting does not balance: {accounting}")


WORKLOADS = {
    cls.name: cls for cls in (LabRepeats, PopulationPooled, CacheReplay, ServeClosed)
}
