"""The shipped package lints clean when copied to another location.

Rule scoping keys off the path inside the ``repro`` package, not the
checkout's location, so a scratch copy of ``src/repro`` must lint
exactly as the tree does: with no finding.
"""

import shutil
from pathlib import Path

import pytest

from repro.lint import lint_paths

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def tree(tmp_path):
    """A scratch copy of the shipped package."""
    target = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, target)
    return target


def test_unmutated_copy_lints_clean(tree):
    report = lint_paths([tree], root=tree)
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, rendered
