"""Smoke tests for the ``python -m repro bench --e2e`` macro benchmark."""

import json

from repro.bench import write_report
from repro.bench.e2e import format_e2e_report, run_e2e_bench


def test_quick_e2e_report_shape(tmp_path):
    report = run_e2e_bench(quick=True, repeats=1, seed=0)
    assert report["quick"] is True
    assert report["identity_ok"] is True
    assert report["units"] == report["phones"] * report["scenes"] * (
        report["repeats_per_scene"]
    )
    for arm in ("per_capture", "fused"):
        assert report[arm]["seconds"] > 0
        assert report[arm]["captures_per_s"] > 0
    assert report["speedup_fused_vs_per_capture"] > 0

    text = format_e2e_report(report)
    assert "fused" in text and "per_capture" in text
    assert "byte-identical payloads" in text

    out = tmp_path / "e2e.json"
    write_report(report, str(out))
    loaded = json.loads(out.read_text())
    assert loaded["identity_ok"] is True


def test_cli_flag_parses():
    from repro.__main__ import build_parser

    args = build_parser().parse_args(["bench", "--e2e", "--quick"])
    assert args.e2e is True and args.quick is True
