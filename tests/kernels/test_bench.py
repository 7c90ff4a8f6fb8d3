"""Smoke tests for the ``python -m repro bench`` harness."""

import json

from repro.bench import format_report, run_bench, write_report
from repro.bench.cases import build_cases


def test_case_names_unique_and_stable():
    names = [c.name for c in build_cases(quick=True)]
    assert len(names) == len(set(names))
    assert "entropy_encode" in names
    assert "jpeg_encode_128" in names


def test_run_bench_quick_subset(tmp_path):
    report = run_bench(quick=True, repeats=1, only=["entropy_encode", "dct"])
    assert report["quick"] is True
    assert sorted(report["cases"]) == ["dct", "entropy_encode"]

    for entry in report["cases"].values():  # every case is timed once
        assert entry["seconds"] > 0
        assert entry["ops_per_s"] > 0
        assert entry["mb_per_s"] > 0

    text = format_report(report)
    assert "entropy_encode" in text and "throughput" in text

    out = tmp_path / "bench.json"
    write_report(report, str(out))
    assert json.loads(out.read_text())["cases"].keys() == report["cases"].keys()


def test_unknown_case_rejected():
    import pytest

    with pytest.raises(ValueError, match="unknown bench case"):
        run_bench(quick=True, repeats=1, only=["warp_drive"])
