"""The fleet executor: cache short-circuit, fused grouping, pool fan-out.

``FleetExecutor.stream(units)`` resolves every unit through three
stages and yields the payloads in input order, each as soon as it and
every earlier one are resolved; ``run(units)`` is ``list(stream(units))``.

1. **Cache probe** — each unit's content-addressed key is looked up in
   the attached :class:`~repro.runner.cache.CaptureCache`; hits skip
   execution entirely.
2. **Execution** — misses are grouped by
   :func:`~repro.runner.units.group_signature`, so every capture one
   (kind, phone, options) triple makes in a call — all its scenes and
   their repeat shots — fuses into one vectorized
   :func:`~repro.runner.units.execute_unit_group` pass (a group of one
   included), split into consecutive chunks of at most
   :data:`MAX_GROUP_UNITS`; per-unit cache keys are untouched because
   the fused outputs are split back into per-unit payloads. Every unit
   kind runs through that one pass: ``photograph``, ``raw`` and
   ``raw_vs_jpeg`` captures fuse, and each ``develop`` unit is a group
   of one. With ``workers > 1`` the groups go to a
   ``ProcessPoolExecutor`` lazily, at most :data:`IN_FLIGHT_PER_WORKER`
   per worker in flight, and are collected in submission order: each
   group ships as its pickled unit list and its payloads come back
   pickled. Pickle's memo carries a radiance once per group however
   many repeats name it, and :func:`run_unit_group` marks the worker's
   radiances read-only before the fused pass.
3. **Reassembly** — each finished group's payloads are written to the
   cache at once (so a run that fails later keeps them) and released to
   the consumer in input order.

Pool lifetime: inside ``with FleetExecutor(workers=2) as executor:``
every ``run``/``stream`` shares one pool, opened on first use and shut
down (pending groups cancelled) when the block exits, normally or not.
Outside a ``with`` block each call opens and closes its own pool. A
pooled stream that fails or is abandoned shuts its pool down, so no
worker outlives it; a later call in the block opens a fresh one.

Because every unit owns its RNG (see :mod:`repro.runner.seeds`) and the
fused group path is bit-identical to per-unit execution by construction
(``tests/runner/test_batch_invariance.py``), stage 2's scheduling —
pooled or serial, any grouping order — cannot influence any output bit.

Observability: when a :mod:`repro.obs` observer is active, ``run`` is
wrapped in a ``fleet.run`` span, cache probes and executions feed the
fleet counters, and pooled workers execute through
:func:`~repro.runner.units.execute_unit_group_observed`, which
serializes each worker's spans and metrics back with its results so the
parent's trace covers work done in other processes (absorbed under the
consumer's open span). Observation is side-band only — payloads (and
therefore experiment outputs) are bit-identical with it on or off.
"""

from __future__ import annotations

import multiprocessing
import os
from collections import deque
from itertools import islice
from concurrent.futures import ProcessPoolExecutor
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

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

Payload = Dict[str, np.ndarray]

#: Largest fused group: a bigger one splits into consecutive chunks.
#: Bounds the (N, H, W, C) frame stacks a group holds at once (64 frames
#: of a 96 x 96 output is ~7 MB per float32 stage buffer).
MAX_GROUP_UNITS = 64

#: Pooled groups submitted but not yet collected, per worker. Measured
#: on a 2-vCPU host (128 devices x 4 scenes, 2 workers): 2 per worker
#: labelled the study's last captures later, and 4 matched submitting
#: every group at once while holding fewer results.
IN_FLIGHT_PER_WORKER = 4


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
        populated as groups finish.

    Use as a context manager to share one process pool across calls.
    """

    def __init__(
        self,
        workers: Optional[int] = 0,
        cache: Optional[CaptureCache] = None,
    ) -> None:
        self.workers = resolve_workers(workers)
        self.cache = cache
        self._in_block = False
        self._pool: Optional[ProcessPoolExecutor] = None

    def __enter__(self) -> "FleetExecutor":
        self._in_block = True
        return self

    def __exit__(self, *exc_info) -> None:
        self._in_block = False
        if self._pool is not None:
            self._shutdown(self._pool)

    def run(self, units: Sequence[CaptureUnit]) -> List[Payload]:
        """Execute every unit, in input order.

        Returns
        -------
        One ``{name: ndarray}`` payload per unit, positionally aligned
        with ``units`` regardless of worker count, cache state, grouping,
        or scheduling order.
        """
        units = list(units)
        with obs.span("fleet.run", units=len(units), workers=self.workers):
            return list(self.stream(units))

    def stream(self, units: Iterable[CaptureUnit]) -> Iterator[Payload]:
        """Yield each unit's payload in input order, as soon as it can be.

        A payload is yielded once it and every earlier one are resolved,
        from the attached cache or from a finished group; the rest run
        serially or across the process pool meanwhile. The payloads are
        those :meth:`run` returns.
        """
        units = list(units)
        results: List[Optional[Payload]] = [None] * len(units)
        obs.count("fleet.units_submitted", len(units))
        obs.gauge("fleet.workers", max(1, self.workers))

        keys: List[str] = []
        pending = list(range(len(units)))
        if self.cache is not None:
            with obs.span("fleet.cache_probe", units=len(units)):
                # Per call only: ``units`` keeps the memo's objects alive.
                prefixes: Dict = {}
                keys = [unit_cache_key(unit, prefixes) for unit in units]
                pending = []
                for i, key in enumerate(keys):
                    results[i] = self.cache.get(key)
                    if results[i] is None:
                        pending.append(i)

        groups = [
            [pending[j] for j in group]
            for group in _group_pending([units[i] for i in pending])
        ]
        if self.workers <= 1 or len(pending) <= 1:
            # In-process, straight into the active observer (if any).
            finished = (
                (indices, execute_unit_group([units[i] for i in indices]))
                for indices in groups
            )
        else:
            finished = self._execute_pooled(units, groups)

        ready = 0
        while True:
            while ready < len(units) and results[ready] is not None:
                yield results[ready]  # type: ignore[misc]
                results[ready] = None
                ready += 1
            group = next(finished, None)
            if group is None:
                return
            indices, payloads = group
            for i, payload in zip(indices, payloads):
                results[i] = payload
                if self.cache is not None:
                    self.cache.put(keys[i], payload)

    # ------------------------------------------------------------------
    def _execute_pooled(
        self, units: List[CaptureUnit], groups: List[List[int]]
    ) -> Iterator[Tuple[List[int], List[Payload]]]:
        """Yield ``(indices, payloads)`` per group, in submission order.

        Collecting in submission order keeps the assembled trace
        deterministic in structure even though worker timing is not.
        """
        pool = self._pool
        if pool is None:
            size = self.workers if self._in_block else min(self.workers, len(groups))
            pool = ProcessPoolExecutor(max_workers=size, mp_context=_pool_context())
            if self._in_block:
                self._pool = pool
        observer = obs.active()
        observed = observer is not None
        todo = iter(groups)
        in_flight: deque = deque()

        def submit(count: int) -> None:
            for indices in islice(todo, count):
                group = [units[i] for i in indices]
                in_flight.append((indices, pool.submit(run_unit_group, group, observed)))

        done = False
        try:
            submit(IN_FLIGHT_PER_WORKER * self.workers)
            while in_flight:
                indices, future = in_flight.popleft()
                payloads, span_dicts, metrics_snapshot = future.result()
                submit(1)
                if observed:
                    observer.tracer.absorb(span_dicts)
                    observer.metrics.merge(metrics_snapshot)
                yield indices, payloads
            done = True
        finally:
            if not (done and pool is self._pool):
                self._shutdown(pool)

    def _shutdown(self, pool: ProcessPoolExecutor) -> None:
        if pool is self._pool:
            self._pool = None
        pool.shutdown(wait=True, cancel_futures=True)


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
