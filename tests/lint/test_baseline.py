"""Baseline parsing, round-trip, budgets, and staleness reporting."""

import pytest

from repro.lint import (
    format_baseline,
    lint_paths,
    load_baseline,
    parse_baseline,
    split_unknown_rules,
    write_baseline,
)

VIOLATION = "from repro import obs\nx = obs.count('n')\n"
TWO_VIOLATIONS = (
    "from repro import obs\n"
    "a = obs.count('n')\n"
    "b = obs.count('n')\n"
)


def _write(tmp_path, source, rel="lab/mod.py"):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return target


class TestParsing:
    def test_comments_blanks_and_counts(self):
        text = (
            "# a justification\n"
            "\n"
            "lab/mod.py:OBS001  # stray obs read, tracked in #42\n"
            "core/old.py:MUT001:2\n"
        )
        assert parse_baseline(text) == {
            ("lab/mod.py", "OBS001"): 1,
            ("core/old.py", "MUT001"): 2,
        }

    def test_rejects_malformed_lines(self):
        with pytest.raises(ValueError):
            parse_baseline("not a baseline entry\n")
        with pytest.raises(ValueError):
            parse_baseline("a.py:OBS001:zero\n")
        with pytest.raises(ValueError):
            parse_baseline("a.py:OBS001:0\n")

    def test_missing_file_is_empty(self, tmp_path):
        assert load_baseline(tmp_path / "absent.txt") == {}


class TestRoundTrip:
    def test_findings_to_baseline_and_back(self, tmp_path):
        target = _write(tmp_path, TWO_VIOLATIONS)
        report = lint_paths([target], root=tmp_path)
        assert len(report.findings) == 2

        baseline_file = tmp_path / "baseline.txt"
        write_baseline(report.findings, baseline_file)
        parsed = load_baseline(baseline_file)
        assert parsed == {("lab/mod.py", "OBS001"): 2}

        again = lint_paths([target], root=tmp_path, baseline=parsed)
        assert not again.findings
        assert len(again.baselined) == 2
        assert again.exit_code == 0

    def test_format_emits_counts_and_comments(self, tmp_path):
        target = _write(tmp_path, TWO_VIOLATIONS)
        report = lint_paths([target], root=tmp_path)
        text = format_baseline(report.findings)
        assert "lab/mod.py:OBS001:2" in text
        assert text.startswith("#")


class TestBudgets:
    def test_excess_findings_beyond_count_still_fail(self, tmp_path):
        target = _write(tmp_path, TWO_VIOLATIONS)
        report = lint_paths(
            [target], root=tmp_path, baseline={("lab/mod.py", "OBS001"): 1}
        )
        assert len(report.baselined) == 1
        assert len(report.findings) == 1
        assert report.exit_code == 1

    def test_new_finding_not_in_baseline_fails(self, tmp_path):
        target = _write(tmp_path, VIOLATION)
        report = lint_paths(
            [target], root=tmp_path, baseline={("other.py", "OBS001"): 1}
        )
        assert report.exit_code == 1
        assert report.stale_baseline == (("other.py", "OBS001", 1),)

    def test_stale_entries_surface_after_fix(self, tmp_path):
        target = _write(tmp_path, "x = 1\n")
        report = lint_paths(
            [target], root=tmp_path, baseline={("lab/mod.py", "OBS001"): 2}
        )
        assert report.exit_code == 0
        assert report.stale_baseline == (("lab/mod.py", "OBS001", 2),)


class TestUnknownRules:
    def test_split_unknown_rules_partitions_the_budget(self):
        budget = {
            ("lab/mod.py", "OBS001"): 1,
            ("lab/mod.py", "GONE042"): 2,
            ("core/old.py", "NOPE999"): 1,
        }
        removed = split_unknown_rules(budget, {"OBS001", "MUT001"})
        assert removed == (
            ("core/old.py", "NOPE999", 1),
            ("lab/mod.py", "GONE042", 2),
        )
        assert budget == {("lab/mod.py", "OBS001"): 1}

    def test_retired_rule_entry_is_reported_not_silently_stale(self, tmp_path):
        """Regression: an entry naming a rule that no longer exists used to
        sit in the budget forever — it could never match a finding, so it
        was never consumed and never surfaced as stale either. It must be
        called out explicitly so the line gets deleted."""
        target = _write(tmp_path, "x = 1\n")
        report = lint_paths(
            [target], root=tmp_path,
            baseline={("lab/mod.py", "GONE042"): 3},
        )
        assert report.exit_code == 0
        assert report.unknown_baseline == (("lab/mod.py", "GONE042", 3),)
        # Unknown-rule entries are not double-reported as merely stale.
        assert report.stale_baseline == ()
