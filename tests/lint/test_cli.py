"""``python -m repro lint`` CLI behaviour: exit codes, formats, flags."""

import json

import pytest


def run_cli(*argv):
    """Invoke the real CLI in-process; returns the exit code."""
    from repro.__main__ import main

    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    return code or 0


@pytest.fixture
def clean_file(tmp_path):
    target = tmp_path / "clean.py"
    target.write_text(
        "import numpy as np\n\n\n"
        "def sample(seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    return rng.random(3)\n"
    )
    return target


@pytest.fixture
def dirty_file(tmp_path):
    target = tmp_path / "dirty.py"
    target.write_text(
        "import time\nfrom repro import obs\n"
        "x = obs.count('n')\nasync def f():\n    time.sleep(1)\n"
    )
    return target


def test_clean_file_exits_zero(clean_file, capsys):
    assert run_cli("lint", str(clean_file)) == 0
    assert "ok: 0 finding(s)" in capsys.readouterr().out


def test_violations_exit_nonzero_with_locations(dirty_file, capsys):
    assert run_cli("lint", str(dirty_file)) == 1
    out = capsys.readouterr().out
    assert f"{dirty_file}:3:" in out
    assert "OBS001" in out and "ASY001" in out
    assert out.strip().endswith("across 1 file(s)")


def test_json_format(dirty_file, capsys):
    assert run_cli("lint", str(dirty_file), "--format", "json") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 1
    assert sorted(f["rule"] for f in payload["findings"]) == ["ASY001", "OBS001"]
    assert payload["files"] == 1


def test_rule_filter(dirty_file, capsys):
    assert run_cli("lint", str(dirty_file), "--rule", "ASY001") == 1
    out = capsys.readouterr().out
    assert "ASY001" in out and "OBS001" not in out
    assert run_cli("lint", str(dirty_file), "--rule", "MUT001") == 0


def test_unknown_rule_is_usage_error(clean_file, capsys):
    assert run_cli("lint", str(clean_file), "--rule", "NOPE999") == 2
    assert "unknown rule" in capsys.readouterr().out


def test_missing_target_is_usage_error(tmp_path, capsys):
    assert run_cli("lint", str(tmp_path / "absent.py")) == 2
    assert "does not exist" in capsys.readouterr().out


def test_list_rules(capsys):
    assert run_cli("lint", "--list-rules") == 0
    out = capsys.readouterr().out
    listed = [line.split()[0] for line in out.strip().splitlines()]
    assert listed == ["ASY001", "ASY002", "ASY003", "MUT001", "OBS001", "PUR002"]


def test_write_baseline_then_gate_passes(dirty_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    assert (
        run_cli(
            "lint", str(dirty_file), "--baseline", str(baseline),
            "--write-baseline",
        )
        == 0
    )
    assert baseline.is_file()
    capsys.readouterr()
    assert run_cli("lint", str(dirty_file), "--baseline", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "2 baselined" in out
    # --no-baseline reports everything again.
    assert (
        run_cli(
            "lint", str(dirty_file), "--baseline", str(baseline), "--no-baseline"
        )
        == 1
    )


def test_malformed_baseline_is_usage_error(clean_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("this is not an entry\n")
    assert run_cli("lint", str(clean_file), "--baseline", str(baseline)) == 2


def test_stats_flag_prints_analysis_cost(clean_file, capsys):
    assert run_cli("lint", str(clean_file), "--stats") == 0
    out = capsys.readouterr().out
    assert "stats: 1 file(s) analyzed in" in out
    assert "call graph:" in out


def test_sarif_format(dirty_file, capsys):
    assert run_cli("lint", str(dirty_file), "--format", "sarif") == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["version"] == "2.1.0"
    run = payload["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    assert sorted(r["ruleId"] for r in run["results"]) == ["ASY001", "OBS001"]


def test_cache_dir_warm_run_matches_cold(dirty_file, tmp_path, capsys):
    cache = tmp_path / "cache"
    args = ("lint", str(dirty_file), "--format", "json",
            "--cache-dir", str(cache))
    assert run_cli(*args) == 1
    cold = json.loads(capsys.readouterr().out)
    assert run_cli(*args) == 1
    warm = json.loads(capsys.readouterr().out)
    # Identical findings cold vs. warm; the warm run served every
    # summary from the on-disk cache.
    assert warm["findings"] == cold["findings"]
    assert cold["stats"]["callgraph"]["cache_misses"] == 1
    assert warm["stats"]["callgraph"]["cache_hits"] == 1
    assert warm["stats"]["callgraph"]["cache_misses"] == 0


def test_unknown_baseline_rule_is_reported(clean_file, tmp_path, capsys):
    baseline = tmp_path / "baseline.txt"
    baseline.write_text("whatever.py:GONE042: 2\n")
    assert run_cli("lint", str(clean_file), "--baseline", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "names an unknown rule" in out
    assert "GONE042" in out
