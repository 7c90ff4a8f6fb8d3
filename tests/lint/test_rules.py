"""Every rule fires on its must-flag fixtures and stays quiet otherwise."""

import pytest

from repro.lint import all_rules, get_rules, lint_paths

from .corpus import CASES, case_params


def _lint_case(tmp_path, case):
    target = tmp_path / case.rel
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(case.source())
    return lint_paths([target], rules=(case.rule,), root=tmp_path)


@pytest.mark.parametrize(
    "case", [c for c, _ in case_params()], ids=[i for _, i in case_params()]
)
def test_corpus_case(tmp_path, case):
    report = _lint_case(tmp_path, case)
    rendered = "\n".join(f.render() for f in report.findings)
    if case.flags:
        assert report.findings, (
            f"{case.rule} must flag fixture {case.id!r} but found nothing"
        )
        assert all(f.rule == case.rule for f in report.findings), rendered
    else:
        assert not report.findings, (
            f"{case.rule} must pass fixture {case.id!r} but flagged:\n{rendered}"
        )


def test_every_rule_has_both_directions():
    """The corpus covers each registered rule with a flag and a pass case."""
    rules = {rule.name for rule in all_rules()}
    flagged = {c.rule for c in CASES if c.flags}
    passed = {c.rule for c in CASES if not c.flags}
    assert rules <= flagged, f"rules without a must-flag case: {rules - flagged}"
    assert rules <= passed, f"rules without a must-pass case: {rules - passed}"


def test_rule_selection_and_unknown_rule():
    assert [r.name for r in get_rules(("mut001",))] == ["MUT001"]
    with pytest.raises(KeyError):
        get_rules(("NOPE999",))


def test_findings_carry_location_and_render(tmp_path):
    case = next(c for c in CASES if c.id == "augassign-param")
    report = _lint_case(tmp_path, case)
    finding = report.findings[0]
    assert finding.rel == case.rel
    assert finding.line == 2
    assert finding.col >= 1
    assert finding.render().startswith(f"{finding.path}:2:")
    assert "MUT001" in finding.render()


def test_parse_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def oops(:\n")
    report = lint_paths([bad], root=tmp_path)
    assert report.exit_code == 1
    assert report.findings[0].rule == "PARSE"


def test_ast_cache_shared_across_runs(tmp_path):
    from repro.lint import LintEngine

    target = tmp_path / "mod.py"
    target.write_text("from repro import obs\nx = obs.count('n')\n")
    engine = LintEngine()
    first = engine.run([target], root=tmp_path)
    assert [f.rule for f in first.findings] == ["OBS001"]
    assert len(engine._ast_cache) == 1
    cached_ctx = next(iter(engine._ast_cache.values()))[1]
    second = engine.run([target], root=tmp_path)
    assert next(iter(engine._ast_cache.values()))[1] is cached_ctx
    assert [f.render() for f in first.findings] == [
        f.render() for f in second.findings
    ]
