"""Seeded open-loop load schedule generation.

The schedule — who asks for what, when — is built *up front* from a
seed, before any network traffic: exponential inter-arrival gaps at the
target rate (a Poisson arrival process, the standard open-loop model)
and uniform device/scene/repeat coordinates, both from
:func:`~repro.runner.seeds.derive_rng` streams. Two runs with equal
``(seed, rate, count, devices, scenes, repeats)`` therefore issue the
byte-identical request sequence — which is what lets a drained service
run be replayed against :meth:`IngestService.serial_reference` and
compared bit for bit.

Open-loop means offered load never adapts to service latency: requests
fire on schedule whether or not earlier ones have been answered. That is
deliberate — it is the only way to actually observe shedding, because a
closed-loop client slows down with the server and can never overload it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..runner.seeds import derive_rng

__all__ = ["ScheduledRequest", "build_schedule"]


@dataclass(frozen=True)
class ScheduledRequest:
    """One planned request: fire at ``at_s`` (seconds from run start)."""

    request_id: int
    at_s: float
    device: int
    scene: int
    repeat: int


def build_schedule(
    count: int,
    rate: float,
    devices: int,
    scenes: int,
    seed: int = 0,
    repeats: int = 1,
) -> List[ScheduledRequest]:
    """Build a deterministic open-loop schedule of ``count`` requests.

    Parameters
    ----------
    count:
        Total requests to plan.
    rate:
        Mean offered rate in requests/second (Poisson arrivals: the
        inter-arrival gaps are exponential with mean ``1/rate``).
    devices, scenes:
        Coordinate ranges to draw from uniformly — normally the served
        fleet/scene dimensions reported by the server's ``hello``.
    seed:
        Master seed. Arrival times come from the
        ``derive_rng(seed, "loadgen.arrivals")`` stream and coordinates
        from ``derive_rng(seed, "loadgen.coords")`` — separate streams,
        so changing the rate re-times the *same* request mix.
    repeats:
        Each request's ``repeat`` is drawn from ``[0, repeats)``;
        ``repeats=1`` pins every repeat to 0 (maximally cache-friendly),
        larger values diversify capture entropy.
    """
    if count < 0:
        raise ValueError("count must be >= 0")
    if rate <= 0:
        raise ValueError("rate must be > 0")
    if devices < 1 or scenes < 1:
        raise ValueError("devices and scenes must be >= 1")
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    arrivals = derive_rng(seed, "loadgen.arrivals")
    coords = derive_rng(seed, "loadgen.coords")
    schedule: List[ScheduledRequest] = []
    at = 0.0
    for request_id in range(count):
        at += float(arrivals.exponential(1.0 / rate))
        schedule.append(
            ScheduledRequest(
                request_id=request_id,
                at_s=at,
                device=int(coords.integers(0, devices)),
                scene=int(coords.integers(0, scenes)),
                repeat=int(coords.integers(0, repeats)),
            )
        )
    return schedule
