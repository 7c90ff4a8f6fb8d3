"""The gate itself: the real tree lints clean, violations would not.

This is the acceptance contract of the CI ``lint`` job: ``python -m
repro lint`` exits 0 on the repository as committed (with the shipped —
currently empty — baseline), and a seeded violation anywhere in the
linted set flips the exit code.
"""

from pathlib import Path

from repro.lint import all_rules, lint_paths
from repro.lint.cli import default_baseline_path, default_target

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


def test_default_target_is_the_package():
    assert default_target() == SRC_ROOT


def test_repo_lints_clean_with_all_rules():
    report = lint_paths([SRC_ROOT])
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, f"repo must lint clean:\n{rendered}"
    assert report.files > 50, "lint walked suspiciously few files"


def test_shipped_baseline_is_empty():
    """The baseline carries no grandfathered findings; deviations are
    suppressed inline next to their justification comments."""
    from repro.lint import load_baseline

    path = default_baseline_path()
    assert path is not None, "lint-baseline.txt missing from the repo root"
    assert load_baseline(path) == {}


def test_seeded_violation_fails_the_gate(tmp_path):
    scratch = tmp_path / "scratch.py"
    scratch.write_text("from repro import obs\nx = obs.count('n')\n")
    report = lint_paths([SRC_ROOT, scratch])
    assert report.exit_code == 1
    assert [f.rule for f in report.findings] == ["OBS001"]


def test_one_seeded_violation_per_rule_fails(tmp_path):
    """Each rule can individually flip the repo-wide gate."""
    seeded = {
        "MUT001": ("imaging/x.py", "def f(a):\n    a *= 2\n    return a\n"),
        "OBS001": (
            "runner/x.py",
            "from repro import obs\ndef f():\n    return obs.active()\n",
        ),
        "ASY001": (
            "serve/x.py",
            "import time\nasync def f():\n    time.sleep(1)\n",
        ),
        "ASY002": (
            "serve/x.py",
            "async def f(lock, q):\n"
            "    async with lock:\n"
            "        return await q.get()\n",
        ),
        "ASY003": (
            "serve/x.py",
            "import asyncio\n"
            "async def g():\n    pass\n"
            "async def f():\n    asyncio.create_task(g())\n",
        ),
        "PUR002": (
            "codecs/x.py",
            "from repro import obs\ndef f():\n    return obs.active()\n",
        ),
    }
    assert set(seeded) == {rule.name for rule in all_rules()}
    for rule, (rel, code) in sorted(seeded.items()):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(code)
        report = lint_paths([target], rules=(rule,), root=tmp_path)
        assert report.exit_code == 1, f"{rule} did not fire on its seed"
        assert len(report.findings) == 1, (
            f"{rule} must catch its seed with exactly one finding, got: "
            + "; ".join(f.render() for f in report.findings)
        )
