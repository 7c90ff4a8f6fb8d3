"""Mutation tests: seeded regressions in the *real* tree are caught.

These are the acceptance checks for the whole-program passes: copy
``src/repro`` into a scratch directory, inject one realistic violation,
and assert the lint gate reports exactly that one finding with the
right rule id and a cross-module trace a reader can follow.
"""

import ast
import shutil
import textwrap
from pathlib import Path

import pytest

from repro.lint import lint_paths

SRC_ROOT = Path(__file__).resolve().parents[2] / "src" / "repro"


@pytest.fixture
def tree(tmp_path):
    """A scratch copy of the shipped package (lints clean as copied)."""
    target = tmp_path / "repro"
    shutil.copytree(SRC_ROOT, target)
    return target


def _inject(tree, rel, qualname, code):
    """Insert ``code`` as the first body statements of ``qualname``
    (dotted ``Class.method`` or plain function name) in ``tree/rel``."""
    path = tree / rel
    source = path.read_text()
    node = ast.parse(source)
    for part in qualname.split("."):
        node = next(
            child for child in ast.walk(node)
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ) and child.name == part
        )
    first = node.body[0]
    indent = " " * first.col_offset
    lines = source.splitlines(keepends=True)
    insert = "".join(
        indent + line + "\n" for line in textwrap.dedent(code).strip().splitlines()
    )
    lines.insert(first.lineno - 1, insert)
    path.write_text("".join(lines))


def _lint(tree, rule):
    return lint_paths([tree], rules=(rule,), root=tree)


def test_literal_rng_on_a_capture_path_trips_seed001(tree):
    _inject(
        tree, "devices/phone.py", "Phone.photograph",
        "rng = np.random.default_rng(7)",
    )
    report = _lint(tree, "SEED001")
    assert [f.rule for f in report.findings] == ["SEED001"]
    finding = report.findings[0]
    assert finding.rel == "devices/phone.py"
    assert "literal" in finding.message
    assert "reachable from the capture path" in finding.message
    assert "devices/phone.py:Phone.photograph" in finding.message


def test_sleep_in_async_serve_handler_trips_asy001(tree):
    _inject(
        tree, "serve/service.py", "IngestService._process",
        "import time\ntime.sleep(0.001)",
    )
    report = _lint(tree, "ASY001")
    assert [f.rule for f in report.findings] == ["ASY001"]
    finding = report.findings[0]
    assert finding.rel == "serve/service.py"
    assert "time.sleep" in finding.message


def test_unshielded_executor_call_trips_asy001_transitively(tree):
    """Calling the sync fleet executor without the run_in_executor shim
    blocks the loop four modules away from the primitive — the chain in
    the message walks the whole way down."""
    _inject(
        tree, "serve/service.py", "IngestService._process",
        "self.executor.run([])",
    )
    report = _lint(tree, "ASY001")
    assert [f.rule for f in report.findings] == ["ASY001"]
    finding = report.findings[0]
    assert "serve/service.py:IngestService._process" in finding.message
    assert "runner/executor.py:FleetExecutor.run" in finding.message
    assert "runner/cache.py:CaptureCache.get -> numpy.load" in finding.message


def test_unmutated_copy_lints_clean(tree):
    report = lint_paths([tree], root=tree)
    rendered = "\n".join(f.render() for f in report.findings)
    assert not report.findings, rendered

