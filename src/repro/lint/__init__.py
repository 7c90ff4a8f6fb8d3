"""Static analysis for the invariants no runtime test can see.

The reproduction's methodology only holds if instability comes from the
*modeled* perturbation sources — sensor noise, ISP parameterization,
codecs, OS decoders — never from hidden nondeterminism in our own code.
The runtime suites pin that: capture and codec golden hashes,
batch/worker/cache invariance, the global-RNG guard, serve identity and
the ``PYTHONHASHSEED`` sweep fail on any defect that moves an output
bit. This package keeps the rules for what those suites cannot observe:
a blocking call or a lock held across ``await`` on the serving event
loop, a fire-and-forget task, an in-place write into a pure layer's
argument, and an observability hook whose value is read back.

Zero dependencies beyond the stdlib ``ast`` module. The pieces:

* :mod:`~repro.lint.registry` — rule registry with per-rule severity;
* :mod:`~repro.lint.rules_purity` — MUT001 (parameter mutation), OBS001
  (obs hook discipline);
* :mod:`~repro.lint.callgraph` — project-wide call graph with
  hash-cached per-function summaries, backing the whole-program rules;
* :mod:`~repro.lint.rules_async` — ASY001-ASY003 (event-loop safety for
  the serving path);
* :mod:`~repro.lint.rules_effects` — PUR002 (obs stays a write-only
  sink on pixel/byte paths, checked across module boundaries);
* :mod:`~repro.lint.engine` — shared-AST-cache file walker with inline
  ``# lint: disable=RULE`` suppressions;
* :mod:`~repro.lint.baseline` — committed grandfather list so the CI
  gate (``python -m repro lint``) fails only on *new* findings;
* :mod:`~repro.lint.sarif` — SARIF 2.1.0 output for code-scanning UIs;
* :mod:`~repro.lint.cli` — the ``python -m repro lint`` front end.

Programmatic use::

    from repro.lint import lint_paths

    report = lint_paths(["src/repro"], rules=("ASY001",))
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
from .callgraph import Program, SummaryCache, build_program
from .context import ModuleContext
from .engine import LintEngine, LintReport, lint_paths
from .findings import Finding, Severity
from .registry import ProgramRule, Rule, all_rules, get_rules, register
from .sarif import to_sarif

__all__ = [
    "Finding",
    "LintEngine",
    "LintReport",
    "ModuleContext",
    "Program",
    "ProgramRule",
    "Rule",
    "Severity",
    "SummaryCache",
    "all_rules",
    "build_program",
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
