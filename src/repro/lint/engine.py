"""The lint engine: walk files, run rules, apply suppressions + baseline.

One :class:`LintEngine` parses each file once per content version (a
shared AST cache keyed by path/mtime/size serves every rule and every
repeat run), collects findings from the selected rules, drops findings
suppressed inline with ``# lint: disable=RULE`` comments, debits the
baseline, and returns a :class:`LintReport`.

Two kinds of rules run per invocation:

* per-module rules see one :class:`ModuleContext` at a time, exactly as
  before;
* whole-program rules (:class:`~repro.lint.registry.ProgramRule`) run
  once all files are parsed, against the linked
  :class:`~repro.lint.callgraph.Program`. Their per-module summaries
  are cached by source hash when ``cache_dir`` is set, so warm reruns
  skip the summary extraction walk entirely.

Both kinds feed the same suppression/baseline pipeline, so an inline
``# lint: disable=ASY002`` or a baseline entry works identically for
cross-module findings.

Scope keys (``rel``) are paths relative to the linted package root:
when a file lives under a directory named ``repro`` the root is that
package directory, so ``src/repro/core/report.py`` scopes as
``core/report.py`` no matter where the checkout sits. Files outside any
``repro`` tree (scratch files, test fixtures) scope by their path
relative to the explicit ``root`` argument, or by bare filename.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Union

from .baseline import BaselineKey, split_unknown_rules
from .callgraph import SummaryCache, build_program, source_sha
from .context import ModuleContext
from .findings import Finding, Severity
from .registry import ProgramRule, Rule, all_rules, get_rules

__all__ = ["LintEngine", "LintReport", "lint_paths"]

#: Inline suppression: ``# lint: disable=ASY002`` or ``=ASY002,MUT001``
#: or ``=all``, anywhere on the flagged line.
_SUPPRESS = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")


@dataclass(frozen=True)
class LintReport:
    """Outcome of one lint run."""

    findings: Tuple[Finding, ...]  #: live findings, sorted by location
    baselined: Tuple[Finding, ...]  #: findings absorbed by the baseline
    suppressed: int  #: count dropped by inline ``# lint: disable``
    files: int  #: files checked
    stale_baseline: Tuple[Tuple[str, str, int], ...]  #: unused (rel, rule, n)
    #: Baseline entries naming rules that no longer exist (rel, rule, n);
    #: they cannot match any finding and should be deleted from the file.
    unknown_baseline: Tuple[Tuple[str, str, int], ...] = ()
    #: Analysis cost: files, wall seconds, per-rule finding counts, and
    #: call-graph size / summary-cache hit rate (``--stats``).
    stats: Dict[str, object] = field(default_factory=dict)

    @property
    def errors(self) -> Tuple[Finding, ...]:
        return tuple(
            f for f in self.findings if f.severity is Severity.ERROR
        )

    @property
    def exit_code(self) -> int:
        return 1 if self.errors else 0


def _suppressions(lines: Sequence[str]) -> Dict[int, Set[str]]:
    """Per-line suppressed rule names (``{"ALL"}`` suppresses any rule)."""
    out: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _SUPPRESS.search(line)
        if match:
            out[lineno] = {
                part.strip().upper()
                for part in match.group(1).split(",")
                if part.strip()
            }
    return out


def _relative_scope(path: Path, root: Optional[Path]) -> str:
    """The rule-scoping path for ``path`` (see module docstring)."""
    resolved = path.resolve()
    parts = resolved.parts
    if "repro" in parts:
        anchor = len(parts) - 1 - parts[::-1].index("repro")
        inside = parts[anchor + 1 :]
        if inside:
            return "/".join(inside)
    if root is not None:
        try:
            return resolved.relative_to(root.resolve()).as_posix()
        except ValueError:
            pass
    return path.name


class LintEngine:
    """Parses, caches, and checks; reusable across runs."""

    def __init__(
        self,
        rules: Optional[Sequence[str]] = None,
        cache_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.rules: Tuple[Rule, ...] = get_rules(rules)
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self._ast_cache: Dict[Path, Tuple[Tuple[float, int], ModuleContext]] = {}
        self._sha_cache: Dict[Path, Tuple[Tuple[float, int], str]] = {}

    def _context(self, path: Path, root: Optional[Path]) -> ModuleContext:
        stat = path.stat()
        stamp = (stat.st_mtime, stat.st_size)
        cached = self._ast_cache.get(path)
        if cached is not None and cached[0] == stamp:
            return cached[1]
        source = path.read_text(encoding="utf-8")
        ctx = ModuleContext.parse(
            path=str(path),
            rel=_relative_scope(path, root),
            source=source,
        )
        self._ast_cache[path] = (stamp, ctx)
        self._sha_cache[path] = (stamp, source_sha(source))
        return ctx

    def run(
        self,
        paths: Iterable[Union[str, Path]],
        baseline: Optional[Dict[BaselineKey, int]] = None,
        root: Optional[Union[str, Path]] = None,
    ) -> LintReport:
        started = time.perf_counter()
        root = Path(root) if root is not None else None
        files = sorted(
            {f for p in paths for f in self._expand(Path(p))}
        )
        live: List[Finding] = []
        baselined: List[Finding] = []
        suppressed = 0
        budget = dict(baseline or {})
        # Validate against the full registry, not this run's selection:
        # see split_unknown_rules.
        known = {rule.name for rule in all_rules()} | {"PARSE"}
        unknown = split_unknown_rules(budget, known)

        module_rules = [
            r for r in self.rules if not getattr(r, "whole_program", False)
        ]
        program_rules = [
            r for r in self.rules if getattr(r, "whole_program", False)
        ]
        contexts: List[ModuleContext] = []
        muted_by_rel: Dict[str, Dict[int, Set[str]]] = {}

        def _admit(finding: Finding) -> None:
            nonlocal suppressed
            rules_here = muted_by_rel.get(finding.rel, {}).get(finding.line, ())
            if "ALL" in rules_here or finding.rule in rules_here:
                suppressed += 1
                return
            key = (finding.rel, finding.rule)
            if budget.get(key, 0) > 0:
                budget[key] -= 1
                baselined.append(finding)
                return
            live.append(finding)

        for path in files:
            try:
                ctx = self._context(path, root)
            except SyntaxError as exc:
                live.append(
                    Finding(
                        rule="PARSE",
                        path=str(path),
                        rel=_relative_scope(path, root),
                        line=exc.lineno or 1,
                        col=(exc.offset or 0) + 1,
                        message=f"file does not parse: {exc.msg}",
                    )
                )
                continue
            contexts.append(ctx)
            muted_by_rel[ctx.rel] = _suppressions(ctx.lines)
            found: List[Finding] = []
            for rule in module_rules:
                found.extend(rule.check(ctx))
            for finding in sorted(found, key=Finding.sort_key):
                _admit(finding)

        graph_stats: Dict[str, object] = {}
        if program_rules and contexts:
            cache = (
                SummaryCache(self.cache_dir)
                if self.cache_dir is not None
                else None
            )
            program = build_program(
                [(ctx, self._sha_cache[Path(ctx.path)][1]) for ctx in contexts],
                cache=cache,
            )
            graph_stats = dict(program.stats)
            found = []
            for rule in program_rules:
                found.extend(rule.check_program(program))
            for finding in sorted(found, key=Finding.sort_key):
                _admit(finding)

        stale = tuple(
            (rel, rule, count)
            for (rel, rule), count in sorted(budget.items())
            if count > 0
        )
        rule_counts: Dict[str, int] = {}
        for finding in live:
            rule_counts[finding.rule] = rule_counts.get(finding.rule, 0) + 1
        stats: Dict[str, object] = {
            "files": len(files),
            "wall_s": round(time.perf_counter() - started, 4),
            "rule_counts": dict(sorted(rule_counts.items())),
            "callgraph": graph_stats,
        }
        return LintReport(
            findings=tuple(sorted(live, key=Finding.sort_key)),
            baselined=tuple(baselined),
            suppressed=suppressed,
            files=len(files),
            stale_baseline=stale,
            unknown_baseline=unknown,
            stats=stats,
        )

    @staticmethod
    def _expand(path: Path) -> Iterable[Path]:
        if path.is_dir():
            return sorted(p for p in path.rglob("*.py") if p.is_file())
        if path.suffix == ".py" and path.is_file():
            return (path,)
        if not path.exists():
            raise FileNotFoundError(f"lint target does not exist: {path}")
        return ()


def lint_paths(
    paths: Iterable[Union[str, Path]],
    rules: Optional[Sequence[str]] = None,
    baseline: Optional[Dict[BaselineKey, int]] = None,
    root: Optional[Union[str, Path]] = None,
    cache_dir: Optional[Union[str, Path]] = None,
) -> LintReport:
    """One-shot convenience wrapper around :class:`LintEngine`."""
    return LintEngine(rules, cache_dir=cache_dir).run(
        paths, baseline=baseline, root=root
    )
