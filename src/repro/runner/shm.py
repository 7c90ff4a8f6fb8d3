"""Zero-copy shared-memory fan-out for fused capture groups.

Pickling a :class:`~repro.runner.units.CaptureUnit` ships its full
radiance buffer into the worker, and pickling the decoded pixel payload
ships it back out. For a fleet study the radiance fields dominate that
traffic: every repeat of every phone re-ships the same scene. This
module replaces both directions with ``multiprocessing.shared_memory``
slabs:

* the parent writes each *distinct* radiance buffer into one input slab
  and ships workers a :class:`SharedArrayRef` (name + offset + shape +
  dtype — a few hundred bytes) instead of the pixels;
* the parent preallocates one output slab with an ``(N, H, W, 3)``
  float32 region per photograph group (shapes come from
  :func:`~repro.runner.units.photograph_output_shape`), and workers write
  their decoded pixels straight into it, returning only scalar metadata.
  ``raw`` and ``raw_vs_jpeg`` groups have no output region
  (``out=None``) and pickle their payloads back.

``develop`` units carry their raw frame rather than a radiance field, so
they skip the slabs: :func:`run_unit_group` runs a pickled group of one.

A :class:`GroupTask` is therefore pixel-free by construction —
``tests/runner/test_batch_invariance.py`` bounds its pickled size as a
regression test.

Worker-side attachment notes (CPython >= 3.9): ``SharedMemory(name=...)``
registers the segment with the process's ``resource_tracker`` even for
an attach-only handle. What that implies depends on the pool's start
method:

* **fork** (the default here): the worker inherits the parent's tracker
  connection, so its register is an idempotent re-add to the *shared*
  tracker set — unregistering from the worker would strip the parent's
  own registration and make the parent's ``unlink`` trip a tracker
  ``KeyError``. Do nothing; the parent's ``unlink`` settles the books.
* **spawn**: the worker boots a *private* tracker, which would unlink
  slabs it never owned when the worker exits. Here :func:`_attach`
  unregisters immediately after attaching — the parent is the sole
  owner and unlinks in its ``finally``.

:func:`_attach` tells the cases apart by whether a tracker connection
already existed before the first attach (inherited == fork). Attachments
are cached per worker process (slabs are reused across the many tasks of
one ``run``), which also sidesteps ``BufferError`` from closing a
segment while NumPy views of it are still alive: the mapping lives until
the worker process exits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..devices.profiles import DeviceProfile
from .units import CaptureUnit, execute_unit_group, execute_unit_group_observed

__all__ = [
    "SharedArrayRef",
    "GroupTask",
    "run_group_task",
    "run_unit_group",
    "detach_all",
]


@dataclass(frozen=True)
class SharedArrayRef:
    """An ndarray region inside a named shared-memory slab."""

    name: str
    offset: int
    shape: Tuple[int, ...]
    dtype: str

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= int(dim)
        return count * np.dtype(self.dtype).itemsize


@dataclass
class GroupTask:
    """Everything a worker needs to run one fused capture group.

    Deliberately pixel-free: the radiance travels as a
    :class:`SharedArrayRef`, and photograph pixels return through
    ``out``. With ``out`` ``None`` — a ``raw``/``raw_vs_jpeg`` group, or
    a photograph whose ISP has no Resize stage — the payloads come back
    pickled.
    """

    profile: DeviceProfile
    radiance: SharedArrayRef
    entropies: List[Tuple[int, ...]]
    options: Dict[str, Any] = field(default_factory=dict)
    kind: str = "photograph"
    out: Optional[SharedArrayRef] = None
    observed: bool = False


# Per-process attach cache: slab name -> open SharedMemory handle.
# Divergence across worker processes is the point: each worker attaches
# each slab once and keeps the mapping until process exit.
_ATTACHED: Dict[str, shared_memory.SharedMemory] = {}


def _attach(name: str) -> shared_memory.SharedMemory:
    shm = _ATTACHED.get(name)
    if shm is None:
        # An already-open tracker connection at this point was inherited
        # across fork; a fresh one spun up by the attach below is private
        # to this process. See the module docstring for why only the
        # private case must unregister.
        inherited = (
            getattr(resource_tracker._resource_tracker, "_fd", None) is not None
        )
        shm = shared_memory.SharedMemory(name=name)
        if not inherited:
            try:
                resource_tracker.unregister(shm._name, "shared_memory")  # type: ignore[attr-defined]
            except Exception:  # pragma: no cover - CPython-internal API
                pass
        _ATTACHED[name] = shm
    return shm


def _view(ref: SharedArrayRef) -> np.ndarray:
    """A zero-copy ndarray over the referenced slab region."""
    shm = _attach(ref.name)
    return np.ndarray(
        ref.shape, dtype=np.dtype(ref.dtype), buffer=shm.buf, offset=ref.offset
    )


def detach_all() -> None:
    """Drop cached attachments (for in-process tests; workers just exit)."""
    for shm in _ATTACHED.values():
        try:
            shm.close()
        except BufferError:  # pragma: no cover - a view outlived the test
            pass
    _ATTACHED.clear()


def run_unit_group(units: List[CaptureUnit], observed: bool = False):
    """Worker entry point for a pickled unit group.

    Returns ``(payloads, span_dicts, metrics_snapshot)``; the last two
    are ``None`` unless ``observed``.
    """
    if observed:
        return execute_unit_group_observed(units)
    return execute_unit_group(units), None, None


def run_group_task(task: GroupTask):
    """Worker entry point: rebuild the group's units and run them fused.

    Returns ``(metas, span_dicts, metrics_snapshot)`` where ``metas`` is
    one small dict per unit. With an output slab the pixels are written
    in place and ``metas`` carries only ``encoded_size``; without one the
    full payloads come back pickled. ``span_dicts``/``metrics_snapshot``
    are ``None`` unless ``task.observed``.
    """
    radiance = _view(task.radiance)
    units = [
        CaptureUnit(
            kind=task.kind,
            profile=task.profile,
            radiance=radiance,
            entropy=tuple(entropy),
            options=dict(task.options),
        )
        for entropy in task.entropies
    ]
    payloads, span_dicts, metrics_snapshot = run_unit_group(units, task.observed)
    if task.out is None:
        return payloads, span_dicts, metrics_snapshot

    out = _view(task.out)
    metas = []
    for i, payload in enumerate(payloads):
        out[i] = payload["pixels"]
        metas.append({"encoded_size": payload["encoded_size"]})
    return metas, span_dicts, metrics_snapshot
