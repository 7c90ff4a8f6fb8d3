"""``python -m repro lint`` — the linter's command-line front end.

Exit status is 0 when every finding is suppressed or baselined, 1 when
any error-severity finding survives (the CI gate keys off this), and 2
on usage errors (unknown rule, unreadable baseline).
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path
from typing import List, Optional

from .baseline import load_baseline, write_baseline
from .engine import lint_paths
from .registry import all_rules, get_rules

__all__ = ["configure_parser", "run", "default_target", "default_baseline_path"]

#: src/repro — the package the linter ships inside and lints by default.
_PACKAGE_ROOT = Path(__file__).resolve().parents[1]


def default_target() -> Path:
    """The default lint target: the installed ``repro`` package source."""
    return _PACKAGE_ROOT


def default_baseline_path() -> Optional[Path]:
    """``lint-baseline.txt`` at the repo root, when running from a checkout."""
    candidate = _PACKAGE_ROOT.parents[1] / "lint-baseline.txt"
    return candidate if candidate.is_file() else None


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach the lint arguments to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        metavar="PATH",
        help="files or directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "sarif"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="persist whole-program summaries here (warm reruns skip "
        "re-analysis of unchanged files)",
    )
    parser.add_argument(
        "--stats",
        action="store_true",
        help="print per-rule counts, wall time, and call-graph size",
    )
    parser.add_argument(
        "--rule",
        action="append",
        dest="rules",
        metavar="RULE",
        help="check only this rule (repeatable, e.g. --rule ASY001)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of grandfathered findings "
        "(default: lint-baseline.txt at the repo root, if present)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; report every finding",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write the current findings to the baseline file and exit 0",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )


def run(args: argparse.Namespace) -> int:
    """Execute the lint command; returns the process exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.name}  [{rule.severity}]  {rule.summary}")
        return 0

    baseline_path = (
        Path(args.baseline) if args.baseline else default_baseline_path()
    )
    try:
        baseline = (
            {} if args.no_baseline or baseline_path is None
            else load_baseline(baseline_path)
        )
    except ValueError as exc:
        print(f"repro lint: {exc}")
        return 2

    paths: List[Path] = [Path(p) for p in args.paths] or [default_target()]
    try:
        report = lint_paths(
            paths,
            rules=args.rules,
            baseline=baseline,
            cache_dir=args.cache_dir,
        )
    except KeyError as exc:
        print(f"repro lint: {exc.args[0]}")
        return 2
    except FileNotFoundError as exc:
        print(f"repro lint: {exc}")
        return 2

    if args.write_baseline:
        target = baseline_path or (
            _PACKAGE_ROOT.parents[1] / "lint-baseline.txt"
        )
        write_baseline(list(report.findings) + list(report.baselined), target)
        print(f"baseline with {len(report.findings) + len(report.baselined)} "
              f"entr{'y' if len(report.findings) + len(report.baselined) == 1 else 'ies'} "
              f"written to {target}")
        return 0

    if args.format == "sarif":
        from .sarif import to_sarif

        selected = get_rules(args.rules)
        print(json.dumps(to_sarif(report, selected), indent=2, sort_keys=True))
        return report.exit_code

    if args.format == "json":
        print(
            json.dumps(
                {
                    "findings": [f.to_dict() for f in report.findings],
                    "baselined": len(report.baselined),
                    "suppressed": report.suppressed,
                    "files": report.files,
                    "stale_baseline": [
                        {"rel": rel, "rule": rule, "count": count}
                        for rel, rule, count in report.stale_baseline
                    ],
                    "unknown_baseline": [
                        {"rel": rel, "rule": rule, "count": count}
                        for rel, rule, count in report.unknown_baseline
                    ],
                    "stats": report.stats,
                    "exit_code": report.exit_code,
                },
                indent=2,
                sort_keys=True,
            )
        )
        return report.exit_code

    for finding in report.findings:
        print(finding.render())
    for rel, rule, count in report.stale_baseline:
        print(
            f"note: baseline entry {rel}:{rule} has {count} unused "
            "allowance(s); trim lint-baseline.txt"
        )
    for rel, rule, count in report.unknown_baseline:
        print(
            f"note: baseline entry {rel}:{rule} names an unknown rule "
            f"({count} allowance(s) can never match); delete the line"
        )
    if args.stats:
        _print_stats(report.stats)
    summary = (
        f"{len(report.findings)} finding(s) "
        f"({len(report.baselined)} baselined, {report.suppressed} suppressed) "
        f"across {report.files} file(s)"
    )
    print(("FAIL: " if report.exit_code else "ok: ") + summary)
    return report.exit_code


def _print_stats(stats: dict) -> None:
    """Render the ``--stats`` block (analysis cost over time in CI logs)."""
    print(f"stats: {stats.get('files', 0)} file(s) analyzed "
          f"in {stats.get('wall_s', 0.0):.3f}s")
    rule_counts = stats.get("rule_counts") or {}
    for rule, count in sorted(rule_counts.items()):
        print(f"stats:   {rule}: {count} finding(s)")
    graph = stats.get("callgraph") or {}
    if graph:
        total = graph.get("cache_hits", 0) + graph.get("cache_misses", 0)
        rate = graph.get("cache_hits", 0) / total if total else 0.0
        print(
            f"stats:   call graph: {graph.get('nodes', 0)} node(s), "
            f"{graph.get('edges', 0)} edge(s); summary cache "
            f"{graph.get('cache_hits', 0)}/{total} hit(s) ({rate:.0%})"
        )
