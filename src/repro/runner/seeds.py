"""Deterministic per-unit seed derivation.

Parallel determinism hinges on one rule: every work unit owns an RNG
derived purely from *what the unit is*, never from *when it runs*. The
serial path and every worker derive the same generator for the same
``(master_seed, device, image, repeat)`` coordinates, so fan-out order,
worker count, and cache hits cannot change a single output bit.

Components are folded into a ``numpy`` ``SeedSequence`` entropy tuple:
integers pass through (masked to non-negative), strings hash via CRC-32,
floats hash via their exact ``repr``.
"""

from __future__ import annotations

from typing import Tuple, Union
from zlib import crc32

import numpy as np

__all__ = ["seed_component", "unit_entropy", "derive_rng"]

Component = Union[int, float, str, bool, np.integer]

#: SeedSequence entropy words are taken modulo 2**32 per component.
_MASK32 = 0xFFFFFFFF


def seed_component(part: Component) -> int:
    """Map one seed component to a stable non-negative 32-bit integer."""
    if isinstance(part, (bool, np.bool_)):
        return int(part)
    if isinstance(part, (int, np.integer)):
        return int(part) & _MASK32
    if isinstance(part, str):
        return crc32(part.encode("utf-8"))
    if isinstance(part, float):
        return crc32(repr(part).encode("ascii"))
    raise TypeError(f"cannot derive a seed from {type(part).__name__!r}")


def unit_entropy(master_seed: int, *parts: Component) -> Tuple[int, ...]:
    """Entropy tuple identifying one work unit's RNG stream.

    Parameters
    ----------
    master_seed:
        The experiment-wide seed.
    *parts:
        The unit's identity coordinates (device name, image id, repeat
        index, ...) — whatever distinguishes this unit from every other
        unit in the same experiment. Accepts ints, bools, floats, and
        strings; see :func:`seed_component` for the folding rules.

    Returns
    -------
    A tuple of non-negative 32-bit integers suitable for
    ``numpy.random.SeedSequence`` (and for :class:`CaptureUnit.entropy`).
    Equal coordinates produce equal tuples in every process, which is
    the foundation of the parallel==serial determinism guarantee.
    """
    return (seed_component(master_seed),) + tuple(seed_component(p) for p in parts)


def derive_rng(master_seed: int, *parts: Component) -> np.random.Generator:
    """An independent, order-insensitive generator for one work unit.

    Parameters
    ----------
    master_seed, *parts:
        Identity coordinates, exactly as for :func:`unit_entropy`.

    Returns
    -------
    A fresh ``numpy.random.Generator`` seeded purely from the unit's
    identity — never from execution order, worker assignment, or any
    other generator's consumption.
    """
    return np.random.default_rng(unit_entropy(master_seed, *parts))
