"""The fleet executor: cache short-circuit, fused grouping, pool fan-out.

``FleetExecutor.run(units)`` resolves every unit through three stages:

1. **Cache probe** — each unit's content-addressed key is looked up in
   the attached :class:`~repro.runner.cache.CaptureCache`; hits skip
   execution entirely.
2. **Execution** — misses are grouped by
   :func:`~repro.runner.units.group_signature`, so every capture one
   (kind, phone, options) triple makes in a ``run`` — all its scenes and
   their repeat shots — fuses into one vectorized
   :func:`~repro.runner.units.execute_unit_group` pass (a group of one
   included), split into consecutive chunks of at most
   :data:`MAX_GROUP_UNITS`; per-unit cache keys are untouched because
   the fused outputs are split back into per-unit payloads before
   reassembly. Every unit kind runs through that one pass:
   ``photograph``, ``raw`` and ``raw_vs_jpeg`` captures fuse, and each
   ``develop`` unit is a group of one. With ``workers > 1`` the groups
   fan out across a ``ProcessPoolExecutor`` in one submit-and-collect
   loop: each group ships as its pickled unit list and its payloads
   come back pickled. Pickle's memo carries a radiance once per group
   however many repeats name it, and :func:`run_unit_group` marks the
   worker's radiances read-only before the fused pass.
3. **Reassembly** — results return in input order, and fresh results
   are written back to the cache.

Because every unit owns its RNG (see :mod:`repro.runner.seeds`) and the
fused group path is bit-identical to per-unit execution by construction
(``tests/runner/test_batch_invariance.py``), stage 2's scheduling —
pooled or serial, any grouping order — cannot influence any output bit.

Observability: when a :mod:`repro.obs` observer is active, the whole
``run`` is wrapped in a ``fleet.run`` span, cache probes and executions
feed the fleet counters, and pooled workers execute through
:func:`~repro.runner.units.execute_unit_group_observed`, which
serializes each worker's spans and metrics back with its results so the
parent's trace covers work done in other processes. Observation is
side-band only — payloads (and therefore experiment outputs) are
bit-identical with it on or off.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .cache import CaptureCache
from .units import (
    CaptureUnit,
    execute_unit_group,
    execute_unit_group_observed,
    group_signature,
    unit_cache_key,
)

__all__ = ["FleetExecutor", "MAX_GROUP_UNITS", "resolve_workers"]

#: Largest fused group: a bigger one splits into consecutive chunks.
#: Bounds the (N, H, W, C) frame stacks a group holds at once (64 frames
#: of a 96 x 96 output is ~7 MB per float32 stage buffer).
MAX_GROUP_UNITS = 64


def resolve_workers(workers: Optional[int]) -> int:
    """Normalize a worker request.

    Parameters
    ----------
    workers:
        ``None``, ``0``, or ``1`` select the serial in-process path;
        ``-1`` (or any negative value) selects every available core;
        any other positive value passes through.

    Returns
    -------
    The effective process count, with ``0`` meaning "serial".
    """
    if workers is None:
        return 0
    if workers < 0:
        return os.cpu_count() or 1
    return workers


def _pool_context():
    """Prefer fork (cheap, inherits the imported library); fall back to spawn."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


class FleetExecutor:
    """Runs capture units with optional parallelism and caching.

    Parameters
    ----------
    workers:
        Process count. ``0``/``1``/``None`` use the serial in-process
        path; ``-1`` uses every core. Results are bit-identical across
        all settings.
    cache:
        Optional :class:`CaptureCache` consulted before execution and
        populated after.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache

    def run(self, units: Sequence[CaptureUnit]) -> List[Dict[str, np.ndarray]]:
        """Execute every unit, in input order.

        Parameters
        ----------
        units:
            The :class:`CaptureUnit` sequence to resolve. Units already
            present in the attached cache are served without executing;
            the rest run serially or across the process pool.

        Returns
        -------
        One ``{name: ndarray}`` payload per unit, positionally aligned
        with ``units`` regardless of worker count, cache state, grouping,
        or scheduling order.
        """
        units = list(units)
        with obs.span("fleet.run", units=len(units), workers=self.workers):
            return self._run(units)

    def _run(self, units: List[CaptureUnit]) -> List[Dict[str, np.ndarray]]:
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(units)
        obs.count("fleet.units_submitted", len(units))
        obs.gauge("fleet.workers", max(1, self.workers))

        if self.cache is not None:
            with obs.span("fleet.cache_probe", units=len(units)):
                # Per run only: ``units`` keeps the memo's objects alive.
                prefixes: Dict = {}
                keys = [unit_cache_key(unit, prefixes) for unit in units]
                pending = []
                for i, key in enumerate(keys):
                    payload = self.cache.get(key)
                    if payload is not None:
                        results[i] = payload
                    else:
                        pending.append(i)
        else:
            keys = []
            pending = list(range(len(units)))

        if pending:
            fresh = self._execute([units[i] for i in pending])
            for i, payload in zip(pending, fresh):
                results[i] = payload
                if self.cache is not None:
                    self.cache.put(keys[i], payload)

        return results  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def _execute(
        self, units: List[CaptureUnit]
    ) -> List[Dict[str, np.ndarray]]:
        groups = _group_pending(units)
        if self.workers <= 1 or len(units) <= 1:
            # Serial fused path: one vectorized pass per group, straight
            # into the active observer (if any), no serialization.
            results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(units)
            for indices in groups:
                payloads = execute_unit_group([units[i] for i in indices])
                for i, payload in zip(indices, payloads):
                    results[i] = payload
            return results  # type: ignore[return-value]
        return self._execute_groups_pooled(units, groups)

    # ------------------------------------------------------------------
    def _execute_groups_pooled(
        self, units: List[CaptureUnit], groups: List[List[int]]
    ) -> List[Dict[str, np.ndarray]]:
        """Fan fused groups across the pool as pickled unit lists.

        Every group is submitted in one loop and collected in submission
        order, and results are scattered back to pending order, so
        callers see the same alignment as every other execution mode.
        """
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(units)
        observer = obs.active()
        observed = observer is not None
        max_workers = min(self.workers, max(1, len(groups)))
        with ProcessPoolExecutor(
            max_workers=max_workers, mp_context=_pool_context()
        ) as pool:
            futures = [
                pool.submit(run_unit_group, [units[i] for i in indices], observed)
                for indices in groups
            ]
            # Collect in submission order: the assembled trace (and the
            # scatter below) is deterministic in structure even though
            # worker timing is not.
            for future, indices in zip(futures, groups):
                payloads, span_dicts, metrics_snapshot = future.result()
                if observed:
                    observer.tracer.absorb(span_dicts)
                    observer.metrics.merge(metrics_snapshot)
                for i, payload in zip(indices, payloads):
                    results[i] = payload
        return results  # type: ignore[return-value]


def run_unit_group(units: List[CaptureUnit], observed: bool = False):
    """Pool worker entry point: run one pickled group in one fused pass.

    Pickle's memo ships each distinct radiance once per group, and every
    unit naming it unpickles to the same array, so the sensor's per-buffer
    front end still runs once per scene. The radiances are marked
    read-only first: a stage that wrote into its input would otherwise
    hand the group's later units a changed frame, and only in pooled runs.

    Returns ``(payloads, span_dicts, metrics_snapshot)``; the last two
    are ``None`` unless ``observed``.
    """
    for unit in units:
        if unit.radiance is not None:
            unit.radiance.flags.writeable = False
    if observed:
        return execute_unit_group_observed(units)
    return execute_unit_group(units), None, None


def _group_pending(units: List[CaptureUnit]) -> List[List[int]]:
    """Partition pending units into fused groups, preserving order.

    Units sharing a :func:`group_signature` — one device's captures with
    one treatment, over any scenes — land in one group (ordered by first
    occurrence, members in submission order); ``develop`` units, which
    have no signature, get singleton groups. A group larger than
    :data:`MAX_GROUP_UNITS` splits into near-equal consecutive chunks, so
    a frame stack stays bounded in memory and a big study still leaves
    the pool several groups per device. Which units share a group is
    scheduling only: every payload is a function of its own unit, which
    the batch-invariance suite checks by shuffling submission order and
    splitting groups.
    """
    grouped: Dict[Tuple, List[int]] = {}
    buckets: List[List[int]] = []
    for i, unit in enumerate(units):
        signature = group_signature(unit)
        if signature is None:
            buckets.append([i])
            continue
        bucket = grouped.get(signature)
        if bucket is None:
            bucket = grouped[signature] = [i]
            buckets.append(bucket)
        else:
            bucket.append(i)
    order: List[List[int]] = []
    for bucket in buckets:
        parts = -(-len(bucket) // MAX_GROUP_UNITS)
        size = -(-len(bucket) // parts)
        order.extend(bucket[k : k + size] for k in range(0, len(bucket), size))
    return order
