"""Deterministic micro/macro benchmarks for the codec kernels and the
capture pipeline.

``python -m repro bench`` runs every case in :mod:`repro.bench.cases`
once (warm-up outside the clock, then ``--repeats`` timed runs) and
writes a JSON report (default ``BENCH_kernels.json``).

Timing uses ``time.perf_counter`` (min over ``--repeats`` runs — the
standard way to suppress scheduler noise). The *timed work* is fully
deterministic: inputs come from seeded generators and the report
contains measurements only, never wall-clock timestamps, so two runs
differ only in the seconds columns.
"""

from __future__ import annotations

import json
import time
from typing import Dict, List, Optional

from .cases import BenchCase, build_cases

__all__ = ["BenchCase", "build_cases", "run_bench", "format_report", "write_report"]


def _time_once(fn, repeats: int) -> float:
    best = None
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        elapsed = time.perf_counter() - start
        if best is None or elapsed < best:
            best = elapsed
    return float(best)


def run_bench(
    quick: bool = False,
    repeats: int = 3,
    only: Optional[List[str]] = None,
    seed: int = 0,
) -> Dict:
    """Run the benchmark suite; returns the JSON-serializable report."""
    cases = build_cases(quick=quick, seed=seed)
    if only:
        unknown = sorted(set(only) - {c.name for c in cases})
        if unknown:
            known = ", ".join(c.name for c in cases)
            raise ValueError(f"unknown bench case(s) {unknown}; known: {known}")
        cases = [c for c in cases if c.name in only]

    report: Dict = {"quick": quick, "repeats": repeats, "cases": {}}
    for case in cases:
        fn = case.prepare()
        fn()  # warm caches (LUTs, code arrays) outside the clock
        seconds = _time_once(fn, repeats)
        report["cases"][case.name] = {
            "items": case.items,
            "item_unit": case.item_unit,
            "bytes": case.nbytes,
            "seconds": seconds,
            "ops_per_s": case.items / seconds if seconds > 0 else None,
            "mb_per_s": case.nbytes / seconds / 1e6 if seconds > 0 else None,
        }
    return report


def format_report(report: Dict) -> str:
    """Render the report as an aligned text table."""
    rows = [
        [
            name,
            f"{entry['seconds'] * 1e3:.2f} ms",
            f"{entry['ops_per_s']:,.0f} {entry['item_unit']}/s",
            f"{entry['mb_per_s']:.1f} MB/s",
        ]
        for name, entry in report["cases"].items()
    ]
    headers = ["case", "time", "throughput", "bandwidth"]
    widths = [
        max(len(headers[i]), max((len(r[i]) for r in rows), default=0))
        for i in range(len(headers))
    ]
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for r in rows:
        lines.append("  ".join(r[i].ljust(widths[i]) for i in range(len(r))))
    return "\n".join(lines)


def write_report(report: Dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
