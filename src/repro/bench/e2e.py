"""End-to-end capture-path macro benchmark: fused vs per-capture.

``python -m repro bench --e2e`` measures fleet throughput (captures/s)
for the full sensor -> ISP -> encode -> decode path on the macro case the
fleet studies run: every phone in the capture fleet photographing a set
of displayed scenes several times each. Two arms resolve the *same* unit
list:

* **per_capture** — ``[execute_unit(u) for u in units]``, the per-unit
  oracle: one capture at a time, including a full parse-and-decode of
  the encoded file;
* **fused** — ``FleetExecutor``, which groups the repeats of each
  (phone, scene) pair into one vectorized ``execute_unit_group`` pass.

Both arms run serially with no capture cache and the model out of the
loop, so the ratio isolates the capture path itself. A warm-up pass
outside the clock populates the per-process phone cache and the kernel
LUTs for both arms alike.

The report also carries ``identity_ok``: a byte-level comparison of
every payload between the two arms. The speedup claim is only meaningful
because the fused path is bit-identical — a fast-but-different batch
path would be a correctness bug, not an optimization (see
``tests/runner/test_batch_invariance.py``).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from ..devices.profiles import capture_fleet
from ..runner.executor import FleetExecutor
from ..runner.seeds import unit_entropy
from ..runner.units import CaptureUnit, execute_unit
from . import _time_once

__all__ = ["run_e2e_bench", "format_e2e_report"]


def _synthetic_scenes(count: int, size: int, seed: int) -> List[np.ndarray]:
    """Smooth seeded radiance fields, one per displayed scene."""
    from scipy import ndimage

    scenes = []
    for index in range(count):
        rng = np.random.default_rng((seed, index))
        field = rng.uniform(0.05, 0.95, size=(size, size, 3)).astype(np.float32)
        field = ndimage.gaussian_filter(field, sigma=(size / 24, size / 24, 0))
        scenes.append(np.ascontiguousarray(field, dtype=np.float32))
    return scenes


def _build_units(
    scenes: List[np.ndarray], repeats: int, seed: int
) -> List[CaptureUnit]:
    units = []
    for profile in capture_fleet():
        for scene_id, radiance in enumerate(scenes):
            for repeat in range(repeats):
                units.append(
                    CaptureUnit(
                        kind="photograph",
                        profile=profile,
                        radiance=radiance,
                        entropy=unit_entropy(
                            seed, profile.name, f"bench_scene_{scene_id}", repeat
                        ),
                    )
                )
    return units


def _payloads_identical(a: List[Dict], b: List[Dict]) -> bool:
    if len(a) != len(b):
        return False
    for pa, pb in zip(a, b):
        if pa.keys() != pb.keys():
            return False
        for key in pa:
            va, vb = np.asarray(pa[key]), np.asarray(pb[key])
            if va.dtype != vb.dtype or va.shape != vb.shape:
                return False
            if va.tobytes() != vb.tobytes():
                return False
    return True


def run_e2e_bench(quick: bool = False, repeats: int = 1, seed: int = 0) -> Dict:
    """Run the macro benchmark; returns the JSON-serializable report."""
    scene_count, capture_repeats, size = (2, 4, 96) if quick else (4, 8, 160)
    scenes = _synthetic_scenes(scene_count, size, seed)
    units = _build_units(scenes, capture_repeats, seed)

    fused = FleetExecutor(workers=0)

    def per_capture(batch: List[CaptureUnit]) -> List[Dict]:
        return [execute_unit(unit) for unit in batch]

    # Warm-up outside the clock: one scene's worth through both arms
    # (phone construction, kernel LUTs, scipy imports).
    warm = [u for u in units if u.radiance is scenes[0]][: len(capture_fleet())]
    per_capture(warm)
    fused.run(warm)

    baseline_payloads = per_capture(units)
    fused_payloads = fused.run(units)
    identity_ok = _payloads_identical(baseline_payloads, fused_payloads)

    baseline_s = _time_once(lambda: per_capture(units), repeats)
    fused_s = _time_once(lambda: fused.run(units), repeats)

    def arm(seconds: float) -> Dict:
        return {
            "seconds": seconds,
            "captures_per_s": len(units) / seconds if seconds > 0 else None,
            "ms_per_capture": 1e3 * seconds / len(units),
        }

    return {
        "quick": quick,
        "seed": seed,
        "repeats": repeats,
        "units": len(units),
        "phones": len(capture_fleet()),
        "scenes": scene_count,
        "repeats_per_scene": capture_repeats,
        "radiance_hw": [size, size],
        "per_capture": arm(baseline_s),
        "fused": arm(fused_s),
        "speedup_fused_vs_per_capture": (
            baseline_s / fused_s if fused_s > 0 else None
        ),
        "identity_ok": identity_ok,
    }


def format_e2e_report(report: Dict) -> str:
    """Render the e2e report as aligned text lines."""
    lines = [
        f"e2e capture path ({report['units']} units: {report['phones']} phones "
        f"x {report['scenes']} scenes x {report['repeats_per_scene']} repeats, "
        f"{report['radiance_hw'][0]}x{report['radiance_hw'][1]} radiance)",
    ]
    for name in ("per_capture", "fused"):
        arm = report[name]
        lines.append(
            f"  {name:12s} {arm['seconds'] * 1e3:9.1f} ms  "
            f"{arm['captures_per_s']:8.1f} captures/s  "
            f"{arm['ms_per_capture']:6.2f} ms/capture"
        )
    speedup = report["speedup_fused_vs_per_capture"]
    lines.append(f"  speedup      {speedup:.2f}x fused vs per-capture")
    lines.append(
        "  identity     "
        + ("byte-identical payloads" if report["identity_ok"] else "MISMATCH")
    )
    return "\n".join(lines)
