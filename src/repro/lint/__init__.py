"""Per-module AST checks for parameter mutation and obs-hook shape.

The reproduction's methodology only holds if instability comes from the
*modeled* perturbation sources — sensor noise, ISP parameterization,
codecs, OS decoders — never from hidden nondeterminism in our own code.
The runtime suites pin that: capture and codec golden hashes,
batch/worker/cache invariance, the global-RNG guard, serve identity and
the ``PYTHONHASHSEED`` sweep fail on any defect that moves an output
bit, and the serving tests run every scenario under asyncio's debug
mode, so a stalled event loop or a lost task fails them too. This
package keeps two rules: no in-place write into a pure layer's
argument, and obs hooks used only as statements or ``with`` contexts.

Zero dependencies beyond the stdlib ``ast`` module. The pieces:

* :mod:`~repro.lint.registry` — rule registry with per-rule severity;
* :mod:`~repro.lint.rules_purity` — MUT001 (parameter mutation), OBS001
  (obs hook discipline);
* :mod:`~repro.lint.engine` — shared-AST-cache file walker with inline
  ``# lint: disable=RULE`` suppressions;
* :mod:`~repro.lint.baseline` — committed grandfather list so the CI
  gate (``python -m repro lint``) fails only on *new* findings;
* :mod:`~repro.lint.sarif` — SARIF 2.1.0 output for code-scanning UIs;
* :mod:`~repro.lint.cli` — the ``python -m repro lint`` front end.

Programmatic use::

    from repro.lint import lint_paths

    report = lint_paths(["src/repro"], rules=("MUT001",))
    assert not report.findings, report.findings[0].render()
"""

from __future__ import annotations

from .baseline import (
    format_baseline,
    load_baseline,
    parse_baseline,
    split_unknown_rules,
    write_baseline,
)
from .context import ModuleContext
from .engine import LintEngine, LintReport, lint_paths
from .findings import Finding, Severity
from .registry import Rule, all_rules, get_rules, register
from .sarif import to_sarif

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "Rule",
    "Severity",
    "all_rules",
    "format_baseline",
    "get_rules",
    "lint_paths",
    "load_baseline",
    "parse_baseline",
    "register",
    "split_unknown_rules",
    "to_sarif",
    "write_baseline",
]
