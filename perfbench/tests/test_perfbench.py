"""Tests for the benchmark itself (run: ``python -m pytest perfbench/tests``).

Tiny-size runs of every workload check that outputs are a pure function
of the seed, that tracing changes no output bit, and that the per-layer
self times plus ``unattributed_ms`` add up to the traced total.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
for path in (str(BENCH), str(ROOT / "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
from layers import LAYERS  # noqa: E402
from repro.runner.units import unit_cache_key  # noqa: E402
from workloads import WORKLOADS, _lab_inputs, client_plans  # noqa: E402

SEED = 5


def _run(workload, trace, tmp_path, seed=SEED):
    run = harness.Run(workload, seed, 0.0, "tiny", tmp_path / workload)
    metrics = run.measure(trace)
    return run, metrics


@pytest.fixture(scope="module")
def tiny_runs(tmp_path_factory):
    """Each workload at tiny size: untraced twice, traced once."""
    tmp = tmp_path_factory.mktemp("perfbench")
    tail, harness.TAIL_SAMPLES = harness.TAIL_SAMPLES, 1
    try:
        return {
            name: [_run(name, trace, tmp) for trace in (False, False, True)]
            for name in WORKLOADS
        }
    finally:
        harness.TAIL_SAMPLES = tail


def test_inputs_are_a_pure_function_of_the_seed():
    def lab_keys(seed):
        units, _, _ = _lab_inputs(seed, scenes=1, repeats=2)
        return [unit_cache_key(unit) for unit in units]

    assert lab_keys(3) == lab_keys(3)
    assert lab_keys(3) != lab_keys(4)
    assert client_plans(3, 2, 5, 16, 4) == client_plans(3, 2, 5, 16, 4)
    assert client_plans(3, 2, 5, 16, 4) != client_plans(4, 2, 5, 16, 4)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_digest_repeats_and_survives_tracing(tiny_runs, workload):
    (first, _), (second, _), (traced, _) = tiny_runs[workload]
    assert first.reference is not None
    assert first.reference == second.reference == traced.reference
    assert first.failed == 0 and first.attempted > 0


def test_cache_replay_reads_back_what_the_lab_study_computes(tiny_runs):
    lab, cache = tiny_runs["lab_repeats"][0][0], tiny_runs["cache_replay"][0][0]
    assert lab.reference == cache.reference


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_layer_self_times_add_up_to_the_traced_total(tiny_runs, workload):
    _, metrics = tiny_runs[workload][2]
    attributed = sum(metrics[f"{layer}.self_ms"][0] for layer in LAYERS)
    total = metrics["traced_total_ms"][0]
    assert attributed + metrics["unattributed_ms"][0] == pytest.approx(total)
    assert -1.0 < metrics["unattributed_ms"][0] < total
    assert metrics["obs.overhead_ratio"][0] > 0


def test_benchmark_json_names_every_reported_metric(tiny_runs):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    for name, runs in tiny_runs.items():
        (_, end_to_end), _, (_, per_layer) = runs
        assert [m["name"] for m in spec["end_to_end"]] == list(end_to_end), name
        assert [m["name"] for m in spec["per_layer"]] == list(per_layer), name
        units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
        for metric, (_, unit) in {**end_to_end, **per_layer}.items():
            assert units[metric] == unit, metric


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "lab_repeats",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
