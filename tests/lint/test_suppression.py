"""Inline ``# lint: disable=RULE`` suppression semantics."""

from repro.lint import lint_paths


def _run(tmp_path, source, rel="lab/mod.py", rules=None):
    target = tmp_path / rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return lint_paths([target], rules=rules, root=tmp_path)


def test_same_line_suppression(tmp_path):
    report = _run(
        tmp_path,
        "from repro import obs\n"
        "x = obs.count('n')  # lint: disable=OBS001\n",
    )
    assert not report.findings
    assert report.suppressed == 1


def test_suppression_is_rule_specific(tmp_path):
    report = _run(
        tmp_path,
        "from repro import obs\n"
        "x = obs.count('n')  # lint: disable=ASY001\n",
    )
    assert [f.rule for f in report.findings] == ["OBS001"]
    assert report.suppressed == 0


def test_suppress_multiple_rules_on_one_line(tmp_path):
    report = _run(
        tmp_path,
        "from repro import obs\n"
        "def f(a):\n"
        "    a *= obs.count('n')"
        "  # lint: disable=MUT001, OBS001\n"
        "    return a\n",
        rel="imaging/mod.py",
    )
    assert not report.findings
    assert report.suppressed == 2


def test_disable_all(tmp_path):
    report = _run(
        tmp_path,
        "from repro import obs\n"
        "x = obs.count('n')  # lint: disable=all\n",
    )
    assert not report.findings
    assert report.suppressed == 1


def test_suppression_only_covers_its_line(tmp_path):
    report = _run(
        tmp_path,
        "from repro import obs\n"
        "a = obs.count('n')  # lint: disable=OBS001\n"
        "b = obs.count('n')\n",
    )
    assert [f.line for f in report.findings] == [3]
    assert report.suppressed == 1
