"""Whole-program rules across module boundaries.

The corpus in :mod:`tests.lint.corpus` exercises each rule on a single
file; these tests build small multi-module fixture packages under
``tmp_path`` and check the properties that only exist cross-module:
blocking and obs-reachability chains that span import hops, and the
rendered traces that make the findings actionable.
"""

import textwrap

from repro.lint import lint_paths


def _write_tree(tmp_path, files):
    targets = []
    for rel, source in sorted(files.items()):
        target = tmp_path / rel
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(source))
        targets.append(target)
    return targets


def _lint(tmp_path, files, rule):
    targets = _write_tree(tmp_path, files)
    return lint_paths(targets, rules=(rule,), root=tmp_path)


def test_asy001_blocking_chain_through_two_import_hops(tmp_path):
    """serve/ async handler -> sync helper in runner/ -> sync IO in lab/:
    one finding at the async frontier, chain spelled out to the
    primitive."""
    report = _lint(tmp_path, {
        "serve/svc.py": """
            from ..runner.helper import fetch
            async def handle(path):
                return fetch(path)
        """,
        "runner/helper.py": """
            from ..lab.io import slurp
            def fetch(path):
                return slurp(path)
        """,
        "lab/io.py": """
            def slurp(path):
                with open(path) as fh:
                    return fh.read()
        """,
    }, "ASY001")
    assert [f.rule for f in report.findings] == ["ASY001"]
    finding = report.findings[0]
    assert finding.rel == "serve/svc.py"
    assert (
        "serve/svc.py:handle -> runner/helper.py:fetch "
        "-> lab/io.py:slurp -> open" in finding.message
    )


def test_asy001_executor_shim_cuts_the_chain(tmp_path):
    report = _lint(tmp_path, {
        "serve/svc.py": """
            import asyncio
            from ..runner.helper import fetch
            async def handle(path):
                loop = asyncio.get_running_loop()
                return await loop.run_in_executor(None, fetch, path)
        """,
        "runner/helper.py": """
            def fetch(path):
                with open(path) as fh:
                    return fh.read()
        """,
    }, "ASY001")
    assert not report.findings


def test_pur002_obs_misuse_reached_from_a_pure_module(tmp_path):
    """The value-use sits in a helper module, but it is reachable from a
    codec, so the codec's purity contract still flags it."""
    report = _lint(tmp_path, {
        "codecs/enc.py": """
            from ..imaging.meter import metered_sum
            def encode(block):
                return metered_sum(block)
        """,
        "imaging/meter.py": """
            from repro import obs
            def metered_sum(block):
                total = obs.count("imaging.calls")
                return sum(block) + total
        """,
    }, "PUR002")
    assert [f.rule for f in report.findings] == ["PUR002"]
    finding = report.findings[0]
    assert finding.rel == "imaging/meter.py"
    assert "codecs/enc.py:encode" in finding.message


def test_pur002_write_only_hooks_across_modules_are_clean(tmp_path):
    report = _lint(tmp_path, {
        "codecs/enc.py": """
            from ..imaging.meter import metered_sum
            def encode(block):
                return metered_sum(block)
        """,
        "imaging/meter.py": """
            from repro import obs
            def metered_sum(block):
                obs.count("imaging.calls")
                return sum(block)
        """,
    }, "PUR002")
    assert not report.findings
