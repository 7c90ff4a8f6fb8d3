"""Shape of the SARIF 2.1.0 document emitted by ``--format sarif``."""

import json

from repro.lint import all_rules, lint_paths, to_sarif


def _report(tmp_path):
    target = tmp_path / "imaging" / "mod.py"
    target.parent.mkdir(parents=True)
    target.write_text(
        "from repro import obs\ndef f(a):\n"
        "    a *= 2\n    return obs.active()\n"
    )
    return lint_paths([target], root=tmp_path)


def test_document_shape(tmp_path):
    doc = to_sarif(_report(tmp_path), all_rules())
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-schema-2.1.0.json")
    assert len(doc["runs"]) == 1

    driver = doc["runs"][0]["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    rule_ids = [rule["id"] for rule in driver["rules"]]
    assert rule_ids == [rule.name for rule in all_rules()]
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in ("error", "warning")


def test_results_carry_rule_level_message_and_location(tmp_path):
    doc = to_sarif(_report(tmp_path), all_rules())
    results = doc["runs"][0]["results"]
    assert sorted(r["ruleId"] for r in results) == ["MUT001", "OBS001"]
    for result in results:
        assert result["level"] == "error"
        assert result["message"]["text"]
        location = result["locations"][0]["physicalLocation"]
        assert location["artifactLocation"]["uri"] == "imaging/mod.py"
        assert location["region"]["startLine"] in (3, 4)
        assert location["region"]["startColumn"] >= 1


def test_document_is_json_serializable(tmp_path):
    doc = to_sarif(_report(tmp_path), all_rules())
    assert json.loads(json.dumps(doc)) == doc


def test_clean_report_yields_empty_results(tmp_path):
    target = tmp_path / "lab" / "clean.py"
    target.parent.mkdir(parents=True)
    target.write_text("def f(x):\n    return x + 1\n")
    doc = to_sarif(lint_paths([target], root=tmp_path), all_rules())
    assert doc["runs"][0]["results"] == []
