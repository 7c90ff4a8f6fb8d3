"""Counters, gauges, and histograms with snapshot/merge semantics.

:class:`MetricsRegistry` is the single sink the instrumentation hooks
write to: cache hits/misses, units executed, bytes encoded, per-stage
wall time, worker utilization. It is deliberately tiny — three metric
kinds, string names, one lock — because every value it holds must also
survive two boundaries:

* **process**: workers return ``registry.snapshot()`` (a plain nested
  dict) with their results, and the parent folds it in with
  :meth:`MetricsRegistry.merge`;
* **disk**: the same snapshot serializes to JSON for
  ``python -m repro report``.

Merge semantics: counters add, gauges keep the maximum (they record
high-water marks like worker count), histograms add their buckets and
combine min/max. Merging is associative and commutative, so aggregation
order across workers cannot change the result.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

__all__ = ["Histogram", "MetricsRegistry"]

Snapshot = Dict[str, Dict[str, object]]


class Histogram:
    """Power-of-two bucketed distribution (count/sum/min/max preserved).

    Buckets are keyed by ``ceil(log2(value))``, covering anything from
    microsecond durations to multi-megabyte sizes without
    configuration; exact count, sum, min, and max are tracked alongside,
    so means are exact and quantiles are bucket-resolution estimates.
    """

    __slots__ = ("count", "total", "min", "max", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self.buckets: Dict[int, int] = {}

    @staticmethod
    def _bucket(value: float) -> int:
        if value <= 0:
            return -1075  # below the smallest positive double's exponent
        return math.ceil(math.log2(value))

    def record(self, value: float) -> None:
        """Add one observation."""
        value = float(value)
        self.count += 1
        self.total += value
        self.min = value if self.min is None else min(self.min, value)
        self.max = value if self.max is None else max(self.max, value)
        exp = self._bucket(value)
        self.buckets[exp] = self.buckets.get(exp, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, object]:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "buckets": {str(exp): n for exp, n in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Histogram":
        hist = cls()
        hist.count = int(data["count"])
        hist.total = float(data["sum"])
        hist.min = None if data["min"] is None else float(data["min"])
        hist.max = None if data["max"] is None else float(data["max"])
        hist.buckets = {int(exp): int(n) for exp, n in dict(data["buckets"]).items()}
        return hist

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one."""
        self.count += other.count
        self.total += other.total
        if other.min is not None:
            self.min = other.min if self.min is None else min(self.min, other.min)
        if other.max is not None:
            self.max = other.max if self.max is None else max(self.max, other.max)
        for exp, n in other.buckets.items():
            self.buckets[exp] = self.buckets.get(exp, 0) + n


class MetricsRegistry:
    """Thread-safe named counters, gauges, and histograms.

    Parameters are created on first use — ``count("cache.hit")`` both
    declares and increments — so instrumentation sites stay one-liners.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, float] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- writing --------------------------------------------------------
    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n`` (monotonic, merge = sum)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + n

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last-write locally, merge = max)."""
        with self._lock:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = Histogram()
            hist.record(value)

    # -- reading --------------------------------------------------------
    def counter_value(self, name: str, default: float = 0) -> float:
        with self._lock:
            return self._counters.get(name, default)

    def snapshot(self) -> Snapshot:
        """Plain-dict copy of every metric (JSON- and pickle-safe).

        A snapshot is a complete, self-describing value: feeding it to
        :meth:`merge` on an empty registry reconstructs this registry's
        exact state, and snapshots taken from disjoint event streams
        can be merged in any order or grouping (see the module
        docstring's associativity guarantee). This is the unit of
        transport across both process and disk boundaries.
        """
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict() for name, hist in self._histograms.items()
                },
            }

    # -- merging --------------------------------------------------------
    def merge(self, snapshot: Snapshot) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker process) into this
        registry: counters add, gauges take the max, histograms combine.

        **Associativity guarantee.** For snapshots ``a``, ``b``, ``c``
        over disjoint events, ``merge(a); merge(b); merge(c)`` produces
        the same state as merging in any other order, or as merging a
        pre-combined ``merge(a); merge(b)`` snapshot followed by ``c``:
        every per-metric operator (counter ``+``, gauge ``max``,
        histogram bucket-wise ``+`` with min/max combine) is associative
        and commutative with the empty registry as identity. The
        process-pool fan-in (workers merged in completion order) relies
        on this; ``tests/obs/`` pins it down.
        """
        counters = snapshot.get("counters", {})
        gauges = snapshot.get("gauges", {})
        histograms = snapshot.get("histograms", {})
        with self._lock:
            for name, value in counters.items():
                self._counters[name] = self._counters.get(name, 0) + value
            for name, value in gauges.items():
                if name in self._gauges:
                    self._gauges[name] = max(self._gauges[name], float(value))
                else:
                    self._gauges[name] = float(value)
            for name, data in histograms.items():
                incoming = Histogram.from_dict(data)
                mine = self._histograms.get(name)
                if mine is None:
                    self._histograms[name] = incoming
                else:
                    mine.merge(incoming)
