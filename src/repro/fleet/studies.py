"""Fleet-level studies the paper's five handsets couldn't support.

Two study shapes, both producing :class:`~repro.fleet.columnar`
record tables aggregated by :mod:`repro.fleet.stats`:

* :func:`run_population_study` — every synthetic device photographs the
  same displayed scenes through the real capture path (sensor → vendor
  ISP → codec → decode → model), fanned out through
  :class:`~repro.runner.executor.FleetExecutor` in bounded device
  chunks. Output: instability percentiles across the population and
  outlier-device detection.
* :func:`run_drift_study` — the §7 experiment over simulated time: a
  fixed photo corpus, a population whose devices take the OS decoder
  upgrade at sampled time steps, and per-step split-vote instability
  (any two devices disagree; see :mod:`repro.fleet.stats`) as the
  decoder mix shifts. Decoding and inference run once per *decoder
  family* and are expanded to per-device records columnar-ly, so
  decode and inference cost does not grow with the fleet size.

Determinism: capture units reuse the executor's identity-derived seeds
(``unit_entropy(seed, device_name, image_id, repeat)``), inference
chunking is fixed by position, and every aggregate is an integer sum —
so study outputs are bit-identical across worker counts and cache
states, the invariant the CI ``fleet-smoke`` job asserts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .. import obs
from ..devices.runtime import DeviceRuntime
from ..devices.os_sim import DECODER_FAMILIES
from ..imaging.image import ImageBuffer
from ..lab.firebase import build_photo_set
from ..lab.rig import CaptureRig
from ..nn.model import Model, micro_mobilenet  # noqa: F401 (re-export)
from ..nn.pretrained import PretrainConfig, load_pretrained
from ..runner.cache import CaptureCache
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit
from ..scenes.dataset import build_dataset
from ..scenes.objects import ALL_CLASSES
from ..scenes.screen import Screen
from .columnar import ColumnarStore
from .population import SyntheticDevice, generate_devices
from .stats import (
    RECORD_DTYPE,
    TableDims,
    aggregate_tables,
    population_summary,
)

__all__ = [
    "FLEET_PRETRAIN",
    "PopulationStudyOutcome",
    "DriftStudyOutcome",
    "fleet_model",
    "run_population_study",
    "run_drift_study",
]

#: Inference chunk size (matches the lab experiments' DeviceRuntime use).
INFERENCE_BATCH = 64

#: Devices whose capture units are in flight at once. Bounds peak payload
#: memory to ``DEVICE_CHUNK * scenes * repeats`` decoded frames while
#: still giving the process pool large unit batches. Chunk boundaries
#: depend only on device index, so the chunking is output-neutral across
#: worker counts (not across *chunk sizes*: inference batch composition
#: is part of the study's identity, like INFERENCE_BATCH itself).
DEVICE_CHUNK = 64


#: Quick-train recipe for the fleet studies' default model: ~13 s to
#: train from scratch (then served from the pretrained disk cache),
#: ~60 % scene accuracy — enough learned structure that borderline
#: captures exist for device noise to flip, which an *untrained* net
#: lacks (its capture-domain predictions collapse to one class and every
#: population percentile reads 0.0). Training is seeded and
#: deterministic, so study goldens are stable.
FLEET_PRETRAIN = PretrainConfig(
    per_class=12, scenes_per_object=1, epochs=12, augment_copies=2, seed=11
)


def fleet_model() -> Model:
    """The fixed-weight model population studies share by default.

    A lightly-trained MicroMobileNet (:data:`FLEET_PRETRAIN`), loaded
    through the pretrained disk cache. Callers wanting the full base
    model pass ``model=repro.nn.load_pretrained()`` explicitly; callers
    wanting a weight-free run pass ``model=micro_mobilenet()``.
    """
    return load_pretrained(FLEET_PRETRAIN)


def _resolve_devices(
    devices: Optional[Sequence[SyntheticDevice]],
    fleet_size: Optional[int],
    seed: int,
) -> List[SyntheticDevice]:
    if devices is not None:
        return list(devices)
    if fleet_size is None:
        raise ValueError("provide either devices or fleet_size")
    return generate_devices(fleet_size, seed=seed)


@dataclass
class PopulationStudyOutcome:
    """Columnar records plus the population-level aggregates."""

    devices: List[SyntheticDevice]
    store: ColumnarStore
    dims: TableDims
    summary: Dict[str, object]
    scenes: int
    repeats: int
    seed: int

    def device_names(self) -> List[str]:
        return [d.profile.name for d in self.devices]


def run_population_study(
    fleet_size: Optional[int] = None,
    seed: int = 0,
    scenes: int = 4,
    repeats: int = 1,
    workers: int = 0,
    cache: Optional[CaptureCache] = None,
    model: Optional[Model] = None,
    devices: Optional[Sequence[SyntheticDevice]] = None,
) -> PopulationStudyOutcome:
    """Photograph ``scenes`` displayed scenes on every population device.

    Parameters
    ----------
    fleet_size, seed:
        Population coordinates for :func:`generate_devices`; or pass
        ``devices`` directly (e.g. ``fixed_devices(CAPTURE_SPECS)`` for
        the paper's fleet).
    scenes, repeats:
        Distinct displayed scenes and repeat shots per (device, scene).
    workers, cache:
        Passed to :class:`FleetExecutor` — output-neutral as always.
    model:
        Fixed-weight classifier; defaults to :func:`fleet_model`.

    Returns
    -------
    A :class:`PopulationStudyOutcome` whose ``summary`` carries the
    population percentiles and outliers of :func:`population_summary`.
    """
    if scenes < 1:
        raise ValueError("scenes must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    devices = _resolve_devices(devices, fleet_size, seed)
    runtime = DeviceRuntime(
        model if model is not None else fleet_model(), batch_size=INFERENCE_BATCH
    )
    executor = FleetExecutor(workers=workers, cache=cache)
    store = ColumnarStore(RECORD_DTYPE)
    dims = TableDims(
        n_devices=len(devices),
        n_scenes=scenes,
        n_repeats=repeats,
        n_steps=1,
        n_labels=len(ALL_CLASSES),
    )

    # One shared presentation set: same radiance for every device, the
    # rig's experimental-control property at population scale.
    dataset = build_dataset(per_class=max(1, math.ceil(scenes / 5)), seed=seed)
    rig = CaptureRig(screen=Screen(seed=seed), angles=(0.0,), cache=cache)
    displayed = rig.present(list(dataset))[:scenes]
    if len(displayed) < scenes:
        raise ValueError(
            f"dataset yielded only {len(displayed)} scenes; asked for {scenes}"
        )
    true_labels = np.array([shown.item.label for shown in displayed], dtype=np.int16)

    with obs.span(
        "fleet.population_study",
        devices=len(devices),
        scenes=scenes,
        repeats=repeats,
        workers=workers,
    ):
        for start in range(0, len(devices), DEVICE_CHUNK):
            chunk = devices[start : start + DEVICE_CHUNK]
            units: List[CaptureUnit] = []
            for device in chunk:
                for scene_idx, shown in enumerate(displayed):
                    for repeat in range(repeats):
                        units.append(
                            CaptureUnit(
                                kind="photograph",
                                profile=device.profile,
                                radiance=shown.radiance.pixels,
                                entropy=unit_entropy(
                                    seed,
                                    device.profile.name,
                                    shown.image_id,
                                    repeat,
                                ),
                            )
                        )
            payloads = executor.run(units)
            images = [ImageBuffer(payload["pixels"]) for payload in payloads]
            predictions = runtime.predict(images)

            per_device = scenes * repeats
            rows = len(chunk) * per_device
            device_col = np.repeat(
                np.arange(start, start + len(chunk), dtype=np.uint32), per_device
            )
            scene_col = np.tile(
                np.repeat(np.arange(scenes, dtype=np.uint32), repeats), len(chunk)
            )
            repeat_col = np.tile(
                np.arange(repeats, dtype=np.uint16), len(chunk) * scenes
            )
            store.append_columns(
                device=device_col,
                scene=scene_col,
                repeat=repeat_col,
                step=np.zeros(rows, dtype=np.uint16),
                true_label=true_labels[scene_col],
                predicted=np.array([p.top1 for p in predictions], dtype=np.int16),
                confidence=np.array(
                    [p.confidence for p in predictions], dtype=np.float32
                ),
                encoded_size=np.array(
                    [int(payload["encoded_size"]) for payload in payloads],
                    dtype=np.int64,
                ),
            )

        summary = population_summary(
            aggregate_tables(store.table(), dims),
            device_names=[d.profile.name for d in devices],
        )
    obs.count("fleet.population_records", store.rows)
    return PopulationStudyOutcome(
        devices=devices,
        store=store,
        dims=dims,
        summary=summary,
        scenes=scenes,
        repeats=repeats,
        seed=seed,
    )


# ----------------------------------------------------------------------
# OS-upgrade drift over simulated time
# ----------------------------------------------------------------------
@dataclass
class DriftStudyOutcome:
    """Per-step drift curve plus the full per-device record table."""

    devices: List[SyntheticDevice]
    store: ColumnarStore
    dims: TableDims
    #: One row per time step: upgrade progress and instability.
    step_table: List[Dict[str, float]] = field(default_factory=list)
    summary: Dict[str, object] = field(default_factory=dict)


def run_drift_study(
    fleet_size: Optional[int] = None,
    seed: int = 0,
    steps: int = 6,
    photos: int = 12,
    image_format: str = "jpeg",
    model: Optional[Model] = None,
    devices: Optional[Sequence[SyntheticDevice]] = None,
) -> DriftStudyOutcome:
    """Population instability as OS decoder upgrades roll out over time.

    At step 0 every device runs its vendor-shipped decoder family; at
    each later step, devices whose sampled ``upgrade_step`` has arrived
    switch to their vendor's upgrade target. Each step decodes the same
    fixed photo corpus (byte-identical files, as in §7) and classifies
    it — but only once per decoder *family*; per-device records are
    expanded columnar-ly from the family results, which is what lets the
    drift study scale to arbitrary fleet sizes at constant capture cost.

    JPEG corpora drift (the two decoder camps disagree on some photos);
    PNG corpora stay flat at zero instability, exactly like Table 5.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if photos < 1:
        raise ValueError("photos must be >= 1")
    devices = _resolve_devices(devices, fleet_size, seed)
    runtime = DeviceRuntime(
        model if model is not None else fleet_model(), batch_size=INFERENCE_BATCH
    )
    store = ColumnarStore(RECORD_DTYPE)
    dims = TableDims(
        n_devices=len(devices),
        n_scenes=photos,
        n_repeats=1,
        n_steps=steps,
        n_labels=len(ALL_CLASSES),
    )

    with obs.span(
        "fleet.drift_study", devices=len(devices), steps=steps, photos=photos
    ):
        corpus = build_photo_set(
            num_photos=photos, image_format=image_format, seed=seed
        )
        if len(corpus) < photos:
            raise ValueError(
                f"photo corpus yielded only {len(corpus)}; asked for {photos}"
            )
        corpus = corpus[:photos]
        true_labels = np.array([p["label"] for p in corpus], dtype=np.int16)
        sizes = np.array([len(p["bytes"]) for p in corpus], dtype=np.int64)

        # Decode + classify once per decoder family actually present.
        families = sorted(
            {d.spec.decoder_family for d in devices}
            | {d.upgrade_decoder_family for d in devices}
        )
        family_index = {name: i for i, name in enumerate(families)}
        family_pred = np.zeros((len(families), photos), dtype=np.int16)
        family_conf = np.zeros((len(families), photos), dtype=np.float32)
        for name in families:
            decoder = DECODER_FAMILIES[name]
            decoded = [decoder.load(photo["bytes"]) for photo in corpus]
            predictions = runtime.predict(decoded)
            row = family_index[name]
            family_pred[row] = [p.top1 for p in predictions]
            family_conf[row] = [p.confidence for p in predictions]
        obs.count("fleet.drift_families", len(families))

        initial = np.array(
            [family_index[d.spec.decoder_family] for d in devices], dtype=np.int64
        )
        upgraded_to = np.array(
            [family_index[d.upgrade_decoder_family] for d in devices], dtype=np.int64
        )
        upgrade_step = np.array([d.upgrade_step for d in devices], dtype=np.int64)

        n = len(devices)
        step_table: List[Dict[str, float]] = []
        for step in range(steps):
            taken = step >= upgrade_step
            current = np.where(taken, upgraded_to, initial)
            # Expand family results to per-device records (pure indexing,
            # no per-record Python objects).
            preds = family_pred[current]  # (devices, photos)
            confs = family_conf[current]
            store.append_columns(
                device=np.repeat(np.arange(n, dtype=np.uint32), photos),
                scene=np.tile(np.arange(photos, dtype=np.uint32), n),
                repeat=np.zeros(n * photos, dtype=np.uint16),
                step=np.full(n * photos, step, dtype=np.uint16),
                true_label=np.tile(true_labels, n),
                predicted=preds.reshape(-1),
                confidence=confs.reshape(-1),
                encoded_size=np.tile(sizes, n),
            )
            # Per-step instability: a photo is unstable iff two devices
            # disagree on it — i.e. two *present* families disagree.
            present = np.unique(current)
            split = (
                np.any(
                    family_pred[present] != family_pred[present[0]], axis=0
                )
                if present.size > 1
                else np.zeros(photos, dtype=bool)
            )
            majority_family = np.bincount(current, minlength=len(families)).argmax()
            divergent = (family_pred[current] != family_pred[majority_family]).mean(
                axis=1
            )
            step_table.append(
                {
                    "step": step,
                    "upgraded_fraction": float(taken.mean()),
                    "instability": float(split.mean()),
                    "mean_divergence": float(divergent.mean()),
                }
            )

        summary = population_summary(
            aggregate_tables(store.table(), dims),
            device_names=[d.profile.name for d in devices],
        )
    obs.count("fleet.drift_records", store.rows)
    return DriftStudyOutcome(
        devices=devices,
        store=store,
        dims=dims,
        step_table=step_table,
        summary=summary,
    )
