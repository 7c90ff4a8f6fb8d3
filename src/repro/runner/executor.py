"""The fleet executor: cache short-circuit, fused grouping, pool fan-out.

``FleetExecutor.run(units)`` resolves every unit through three stages:

1. **Cache probe** — each unit's content-addressed key is looked up in
   the attached :class:`~repro.runner.cache.CaptureCache`; hits skip
   execution entirely.
2. **Execution** — misses are grouped by
   :func:`~repro.runner.units.group_signature`, so all repeats of the
   same (phone, scene, options) triple fuse into one vectorized
   :func:`~repro.runner.units.execute_unit_group` pass (a group of one
   included); per-unit cache keys are untouched because the fused
   outputs are split back into per-unit payloads before reassembly.
   Every unit kind runs through that one pass: ``photograph``, ``raw``
   and ``raw_vs_jpeg`` repeats fuse, and each ``develop`` unit is a
   group of one. With ``workers > 1`` the groups fan out across a
   ``ProcessPoolExecutor`` in one submit-and-collect loop. Capture
   groups ship as pixel-free :class:`~repro.runner.shm.GroupTask`
   descriptors — radiance travels through a shared-memory input slab,
   and photograph pixels come back through a preallocated output slab,
   so only scalar metadata crosses the pickle boundary (``raw`` and
   ``raw_vs_jpeg`` payloads, and photographs from an ISP without a
   Resize stage, come back pickled). ``develop`` units, which carry
   their raw frame, are pickled whole.
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
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import obs
from .cache import CaptureCache
from .shm import GroupTask, SharedArrayRef, run_group_task, run_unit_group
from .units import (
    CaptureUnit,
    execute_unit_group,
    group_signature,
    photograph_output_shape,
    unit_cache_key,
)

__all__ = ["FleetExecutor", "resolve_workers"]


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
                keys = [unit_cache_key(unit) for unit in units]
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
        """Fan fused groups across the pool via shared-memory slabs.

        Capture groups ship as pixel-free :class:`GroupTask` descriptors;
        ``develop`` units (groups of one) ship pickled. Every group is
        submitted in one loop and collected in submission order, and
        results are scattered back to pending order, so callers see the
        same alignment as every other execution mode.
        """
        results: List[Optional[Dict[str, np.ndarray]]] = [None] * len(units)
        observer = obs.active()
        observed = observer is not None

        # Input slab: each distinct radiance buffer is written once, no
        # matter how many groups (phones x repeats) reference it.
        radiance_refs: Dict[int, Tuple[int, np.ndarray]] = {}
        input_bytes = 0
        # Output slab: one (N, H, W, 3) float32 region per photograph
        # group whose decoded shape is statically known; every other
        # group pickles its payloads back.
        out_specs: List[Optional[Tuple[int, Tuple[int, int, int, int]]]] = []
        output_bytes = 0
        for indices in groups:
            first = units[indices[0]]
            shape = None
            if first.kind != "develop":
                if id(first.radiance) not in radiance_refs:
                    contiguous = np.ascontiguousarray(first.radiance)
                    radiance_refs[id(first.radiance)] = (input_bytes, contiguous)
                    input_bytes += contiguous.nbytes
                if first.kind == "photograph":
                    shape = photograph_output_shape(first.profile)
            if shape is None:
                out_specs.append(None)
                continue
            region = (len(indices),) + shape + (3,)
            out_specs.append((output_bytes, region))
            output_bytes += int(np.prod(region)) * 4

        slabs: List[shared_memory.SharedMemory] = []
        try:
            input_slab = output_slab = None
            if input_bytes:
                input_slab = shared_memory.SharedMemory(
                    create=True, size=input_bytes
                )
                slabs.append(input_slab)
                for offset, contiguous in radiance_refs.values():
                    view = np.ndarray(
                        contiguous.shape,
                        dtype=contiguous.dtype,
                        buffer=input_slab.buf,
                        offset=offset,
                    )
                    view[...] = contiguous
                    del view
            if output_bytes:
                output_slab = shared_memory.SharedMemory(
                    create=True, size=output_bytes
                )
                slabs.append(output_slab)

            max_workers = min(self.workers, max(1, len(groups)))
            with ProcessPoolExecutor(
                max_workers=max_workers, mp_context=_pool_context()
            ) as pool:
                futures = []
                for indices, out_spec in zip(groups, out_specs):
                    first = units[indices[0]]
                    if first.kind == "develop":
                        futures.append(
                            pool.submit(run_unit_group, [first], observed)
                        )
                        continue
                    offset, contiguous = radiance_refs[id(first.radiance)]
                    out_ref = None
                    if out_spec is not None:
                        out_offset, region = out_spec
                        out_ref = SharedArrayRef(
                            output_slab.name, out_offset, region, "float32"
                        )
                    task = GroupTask(
                        profile=first.profile,
                        radiance=SharedArrayRef(
                            input_slab.name,
                            offset,
                            contiguous.shape,
                            str(contiguous.dtype),
                        ),
                        entropies=[tuple(units[i].entropy) for i in indices],
                        options=dict(first.options),
                        kind=first.kind,
                        out=out_ref,
                        observed=observed,
                    )
                    futures.append(pool.submit(run_group_task, task))
                # Collect in submission order: the assembled trace (and
                # the scatter below) is deterministic in structure even
                # though worker timing is not.
                for future, indices, out_spec in zip(futures, groups, out_specs):
                    metas, span_dicts, metrics_snapshot = future.result()
                    if observed:
                        observer.tracer.absorb(span_dicts)
                        observer.metrics.merge(metrics_snapshot)
                    if out_spec is None:
                        for i, payload in zip(indices, metas):
                            results[i] = payload
                        continue
                    out_offset, region = out_spec
                    view = np.ndarray(
                        region,
                        dtype=np.float32,
                        buffer=output_slab.buf,
                        offset=out_offset,
                    )
                    for j, i in enumerate(indices):
                        results[i] = {
                            "pixels": view[j].copy(),
                            "encoded_size": metas[j]["encoded_size"],
                        }
                    del view
        finally:
            for slab in slabs:
                try:
                    slab.close()
                except BufferError:  # pragma: no cover - view outlived scatter
                    pass
                try:
                    slab.unlink()
                except FileNotFoundError:  # pragma: no cover - double clean
                    pass

        return results  # type: ignore[return-value]


def _group_pending(units: List[CaptureUnit]) -> List[List[int]]:
    """Partition pending units into fused groups, preserving order.

    Units sharing a :func:`group_signature` land in one group (ordered by
    first occurrence, members in submission order); ``develop`` units,
    which have no signature, get singleton groups. The grouping is a pure function of
    unit *content*, so any submission order of the same multiset of units
    yields the same group contents — the batch-invariance suite shuffles
    submission order to prove the outputs don't care.
    """
    grouped: Dict[str, List[int]] = {}
    order: List[List[int]] = []
    radiance_memo: Dict[int, str] = {}
    for i, unit in enumerate(units):
        signature = group_signature(unit, _radiance_memo=radiance_memo)
        if signature is None:
            order.append([i])
            continue
        bucket = grouped.get(signature)
        if bucket is None:
            bucket = grouped[signature] = [i]
            order.append(bucket)
        else:
            bucket.append(i)
    return order
