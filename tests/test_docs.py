"""Docs stay truthful: file references resolve, CLI examples parse.

Two failure modes this guards against:

* a doc names a file (``ARCHITECTURE.md``, ``tests/runner/test_determinism.py``,
  a benchmark script) that was renamed or removed;
* a doc quotes a ``python -m repro ...`` command whose flags drifted out
  of sync with the real argparse tree in :mod:`repro.__main__`.

Run standalone (the CI ``docs`` job) or as part of tier-1.
"""

import re
import shlex
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: Docs whose quoted CLI commands must parse.
CLI_DOCS = ("README.md", "EXPERIMENTS.md", "ARCHITECTURE.md")

#: Docs whose links/file references must resolve.
LINK_DOCS = CLI_DOCS + ("DESIGN.md", "ROADMAP.md")

_MD_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_BACKTICK = re.compile(r"`([^`]+)`")


def _doc_paths(names):
    return [REPO_ROOT / name for name in names if (REPO_ROOT / name).is_file()]


def _is_file_reference(text):
    """Backtick contents that promise a file exists in the repo.

    Bare ``NAME.md`` and slash-containing ``*.py``/``*.md`` paths count;
    dotted module paths, globs, and ``<placeholder>`` templates do not.
    """
    if " " in text or any(ch in text for ch in "<>*{}$"):
        return False
    if text.endswith(".md") and "/" not in text:
        return True
    return "/" in text and text.endswith((".py", ".md"))


class TestFileReferencesResolve:
    @pytest.mark.parametrize("doc", _doc_paths(LINK_DOCS), ids=lambda p: p.name)
    def test_markdown_links_resolve(self, doc):
        text = doc.read_text()
        broken = []
        for target in _MD_LINK.findall(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            resolved = (doc.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                broken.append(target)
        assert not broken, f"{doc.name}: broken links {broken}"

    @pytest.mark.parametrize("doc", _doc_paths(LINK_DOCS), ids=lambda p: p.name)
    def test_backtick_file_references_resolve(self, doc):
        text = doc.read_text()
        missing = []
        for ref in _BACKTICK.findall(text):
            if _is_file_reference(ref) and not (REPO_ROOT / ref).exists():
                missing.append(ref)
        assert not missing, f"{doc.name}: references missing files {missing}"


def _fenced_blocks(text):
    """Yield the contents of every ``` fenced code block."""
    for match in re.finditer(r"```[^\n]*\n(.*?)```", text, flags=re.DOTALL):
        yield match.group(1)


def _repro_commands(doc: Path):
    """Every `python -m repro ...` command quoted in the doc's code blocks."""
    commands = []
    for block in _fenced_blocks(doc.read_text()):
        # Re-join backslash line continuations before parsing.
        joined = re.sub(r"\\\n\s*", " ", block)
        for line in joined.splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("python -m repro"):
                commands.append(line)
    return commands


def _all_doc_commands():
    params = []
    for doc in _doc_paths(CLI_DOCS):
        for command in _repro_commands(doc):
            params.append(pytest.param(command, id=f"{doc.name}:{command[16:50]}"))
    return params


class TestCliExamplesParse:
    def test_docs_actually_quote_commands(self):
        """Guard the extractor itself: the docs do contain CLI examples."""
        assert len(_all_doc_commands()) >= 5

    @pytest.mark.parametrize("command", _all_doc_commands())
    def test_command_parses(self, command):
        from repro.__main__ import build_parser

        argv = shlex.split(command)
        assert argv[:3] == ["python", "-m", "repro"], command
        parser = build_parser()
        try:
            args = parser.parse_args(argv[3:])
        except SystemExit as exc:  # argparse rejected the example
            pytest.fail(f"doc command does not parse: {command!r} ({exc})")
        assert hasattr(args, "func"), command
