"""Serialized results, rendered reports and cache keys are PYTHONHASHSEED-stable.

Every site feeding serialization or report ordering sorts its dict
iteration; this regression test proves the property end to end
by re-running the same serialization in subprocesses with different hash
seeds. The payload dicts are deliberately built by iterating a *set* of
string keys, so insertion order genuinely varies across seeds — only the
sorted iteration sites keep the output bytes identical. The same holds for
the per-device rows of ``repro report`` and for capture-cache keys, which
name on-disk entries shared across processes: a key built from ``hash()``
of a string or from dict insertion order would change with the hash seed.
"""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

_SCRIPT = """
import numpy as np

from repro.core.records import ExperimentResult, PredictionRecord
from repro.core.report import format_series
from repro.core.serialize import result_to_json
from repro.devices import capture_fleet
from repro.obs.report import device_rows
from repro.obs.trace import Span
from repro.runner.units import CaptureUnit, unit_cache_key

# Set iteration order depends on PYTHONHASHSEED; the dicts below are
# assembled in that varying order on purpose.
keys = {"zeta", "alpha", "mid", "beta", "omega", "gamma"}
metadata = {k: {"len": len(k), "tag": k.upper()} for k in keys}
record = PredictionRecord(
    environment="pixel3",
    image_id=1,
    true_label=0,
    predicted_label=0,
    confidence=0.5,
    class_name="mug",
    ranking=(0, 1, 2),
    angle=0.0,
    metadata=metadata,
)
print(result_to_json(ExperimentResult([record], name="hashseed")))
print(format_series({k: len(k) / 10.0 for k in keys}))
unit = CaptureUnit(
    kind="photograph",
    profile=capture_fleet()[0],
    radiance=np.zeros((4, 4, 3), dtype=np.float32),
    entropy=(0, 1),
    options={k: len(k) for k in keys},
)
print("cache_key", unit_cache_key(unit))
spans = [
    Span(i, None, "unit.execute", 0.0, 0.5, {"device": k})
    for i, k in enumerate(keys)
]
print(device_rows(spans))
"""


def _run(hashseed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env={
            "PYTHONPATH": str(REPO_ROOT / "src"),
            "PYTHONHASHSEED": hashseed,
            "PATH": "/usr/bin:/bin",
        },
        check=True,
    )
    return result.stdout


def test_output_identical_across_hash_seeds():
    outputs = {_run(seed) for seed in ("0", "1", "42")}
    assert len(outputs) == 1, "output or cache key depends on PYTHONHASHSEED"
    out = outputs.pop()
    # Sanity: sorted metadata keys actually appear in sorted order.
    assert out.index('"alpha"') < out.index('"beta"') < out.index('"zeta"')
    # format_series lines are key-sorted too.
    lines = [l.strip() for l in out.splitlines() if l.strip().startswith(("a", "b", "g", "m", "o", "z"))]
    assert lines == sorted(lines)
