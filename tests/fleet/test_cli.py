"""CLI tests for ``python -m repro fleet``.

The default study model is monkeypatched to the untrained
input-sensitive net so the tier-1 suite never trains the quick-train
base model; the CI ``fleet-smoke`` job runs the real CLI untouched.
"""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.nn.model import micro_mobilenet


@pytest.fixture(autouse=True)
def untrained_fleet_model(monkeypatch):
    monkeypatch.setattr(
        "repro.fleet.studies.load_pretrained",
        lambda config: micro_mobilenet(num_classes=8, seed=0),
    )


class TestParser:
    def test_fleet_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.fleet_size == 1000
        assert args.scenes == 4
        assert args.study == "capture"
        assert args.workers == 0

    def test_fleet_flags_parse(self):
        args = build_parser().parse_args(
            [
                "fleet",
                "--fleet-size", "50",
                "--seed", "9",
                "--scenes", "3",
                "--repeats", "2",
                "--study", "both",
                "--time-steps", "4",
                "--photos", "10",
                "--format", "png",
                "--workers", "2",
                "--cache-dir", "/tmp/cache",
                "--save", "/tmp/out.json",
            ]
        )
        assert args.fleet_size == 50
        assert args.study == "both"
        assert args.time_steps == 4
        assert args.format == "png"
        assert args.cache_dir == "/tmp/cache"

    def test_spill_dir_rejected(self):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["fleet", "--spill-dir", "d"])
        assert excinfo.value.code == 2


class TestCaptureStudyCommand:
    def test_smoke_output(self, capsys):
        assert main(["fleet", "--fleet-size", "5", "--scenes", "2", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "fleet: 5 devices, seed 3" in out
        assert "population instability:" in out
        assert "divergence percentiles:" in out
        assert "outliers (|z| > 3.5):" in out

    def test_parallel_output_identical_to_serial(self, capsys):
        main(["fleet", "--fleet-size", "5", "--scenes", "2", "--seed", "3"])
        serial = capsys.readouterr().out
        main(
            ["fleet", "--fleet-size", "5", "--scenes", "2", "--seed", "3",
             "--workers", "2"]
        )
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_save_writes_summary_json(self, capsys, tmp_path):
        out_path = tmp_path / "fleet.json"
        main(
            ["fleet", "--fleet-size", "4", "--scenes", "2", "--seed", "1",
             "--save", str(out_path)]
        )
        payload = json.loads(out_path.read_text())
        assert payload["population"]["devices"] == 4
        assert "divergence_percentiles" in payload["population"]


class TestDriftCommand:
    def test_smoke_output(self, capsys):
        code = main(
            ["fleet", "--study", "drift", "--fleet-size", "6",
             "--time-steps", "3", "--photos", "5", "--seed", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "drift over 3 steps" in out
        assert "upgraded" in out

    def test_both_runs_both_studies(self, capsys, tmp_path):
        out_path = tmp_path / "both.json"
        main(
            ["fleet", "--study", "both", "--fleet-size", "4", "--scenes", "2",
             "--time-steps", "2", "--photos", "4", "--seed", "1",
             "--save", str(out_path)]
        )
        payload = json.loads(out_path.read_text())
        assert set(payload) == {"population", "drift"}
        assert len(payload["drift"]["steps"]) == 2
