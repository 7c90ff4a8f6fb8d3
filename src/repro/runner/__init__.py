"""Fleet execution: deterministic parallel capture with content caching.

The paper's end-to-end study (§4) runs every (scene, angle, device)
triple through render -> sensor -> ISP -> codec -> model. This package
turns that nested loop into a fleet of independent *work units* that can
be executed serially or fanned out across a process pool, with results
guaranteed bit-identical either way:

* :mod:`~repro.runner.seeds` derives an independent RNG per work unit
  from ``(master_seed, device, image, repeat)``, so no unit's noise
  stream depends on execution order or worker assignment;
* :mod:`~repro.runner.units` defines the picklable
  :class:`~repro.runner.units.CaptureUnit` payloads, the pure fused
  group pass that executes them, and the per-unit reference path;
* :mod:`~repro.runner.cache` is a content-addressed in-memory + on-disk
  cache keyed by a canonical fingerprint of everything that determines a
  unit's output (scene pixels, device profile, seed, options), letting
  repeated experiments and ablation sweeps skip redundant capture work;
* :mod:`~repro.runner.executor` schedules units over
  ``concurrent.futures`` with a serial fallback and cache short-circuit,
  fusing same-(phone, scene) repeats of every unit kind into vectorized
  group passes (:func:`~repro.runner.units.execute_unit_group`);
* :mod:`~repro.runner.shm` ships fused groups to pooled workers as
  pixel-free shared-memory descriptors instead of pickled buffers.

The determinism contract — parallel output equals serial output
bit-for-bit for every experiment — is enforced by
``tests/runner/test_determinism.py``.

The package is instrumented with :mod:`repro.obs`: when an observer is
active, ``FleetExecutor.run`` emits ``fleet.*`` spans and counters, the
cache reports ``capture_cache.*`` hit/miss/store counts, and units
executed in worker processes serialize their spans and metrics back with
their payloads (see ``execute_unit_group_observed``). Observation is timing
side-band only and cannot change any payload bit.
"""

from .cache import CacheStats, CaptureCache, fingerprint
from .executor import FleetExecutor
from .seeds import derive_rng, unit_entropy
from .units import (
    CaptureUnit,
    execute_unit,
    execute_unit_group,
    group_signature,
    payload_to_raw,
    raw_to_payload,
)

__all__ = [
    "CacheStats",
    "CaptureCache",
    "CaptureUnit",
    "FleetExecutor",
    "derive_rng",
    "execute_unit",
    "execute_unit_group",
    "fingerprint",
    "group_signature",
    "payload_to_raw",
    "raw_to_payload",
    "unit_entropy",
]
