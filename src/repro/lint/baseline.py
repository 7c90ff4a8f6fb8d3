"""Committed baseline of grandfathered findings.

The baseline lets the CI gate fail only on *new* findings: entries name
``<rel-path>:<RULE>`` pairs (with an optional ``:<count>`` for multiple
occurrences in one file) that are tolerated, each justified by a ``#``
comment. Line numbers are deliberately absent — they churn with every
edit — so a baseline survives unrelated refactors.

Format, one entry per line::

    # why this is grandfathered
    imaging/legacy.py:MUT001:2  # pre-dates the no-parameter-mutation invariant

``python -m repro lint --write-baseline`` regenerates the file from the
current findings (without justifications — add those by hand).
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path
from typing import Dict, Iterable, Set, Tuple, Union

from .findings import Finding

__all__ = [
    "load_baseline",
    "parse_baseline",
    "format_baseline",
    "write_baseline",
    "split_unknown_rules",
]

BaselineKey = Tuple[str, str]  # (rel path, rule name)


def parse_baseline(text: str) -> Dict[BaselineKey, int]:
    """Parse baseline text into ``{(rel, rule): allowed_count}``."""
    allowed: Dict[BaselineKey, int] = Counter()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(":")
        if len(parts) == 2:
            rel, rule = parts
            count = 1
        elif len(parts) == 3:
            rel, rule = parts[0], parts[1]
            try:
                count = int(parts[2])
            except ValueError:
                raise ValueError(
                    f"baseline line {lineno}: bad count in {line!r}"
                ) from None
        else:
            raise ValueError(
                f"baseline line {lineno}: expected '<path>:<RULE>[:<count>]', "
                f"got {line!r}"
            )
        if count < 1:
            raise ValueError(f"baseline line {lineno}: count must be >= 1")
        allowed[(rel.strip(), rule.strip().upper())] += count
    return dict(allowed)


def load_baseline(path: Union[str, Path]) -> Dict[BaselineKey, int]:
    """Load a baseline file (missing file -> empty baseline)."""
    path = Path(path)
    if not path.is_file():
        return {}
    return parse_baseline(path.read_text())


def format_baseline(findings: Iterable[Finding]) -> str:
    """Render findings as baseline text, grouped and counted."""
    counts: Counter = Counter((f.rel, f.rule) for f in findings)
    lines = [
        "# repro lint baseline - grandfathered findings.",
        "# Each entry must carry a justification comment; new code must",
        "# lint clean. Regenerate with: python -m repro lint --write-baseline",
        "# Format: <rel-path>:<RULE>[:<count>]  # justification",
    ]
    for (rel, rule), count in sorted(counts.items()):
        suffix = f":{count}" if count > 1 else ""
        lines.append(f"{rel}:{rule}{suffix}")
    return "\n".join(lines) + "\n"


def split_unknown_rules(
    allowed: Dict[BaselineKey, int], known_rules: Set[str]
) -> Tuple[Tuple[str, str, int], ...]:
    """Remove and report entries naming rules that do not exist.

    A deleted or renamed rule leaves baseline entries that can never
    match a finding; before this check they hid inside the "stale"
    bucket with a misleading "unused allowance" note. The caller passes
    the *full* rule registry (never a ``--rule`` selection), so
    narrowing a run does not misreport valid entries. Mutates
    ``allowed`` in place and returns the removed ``(rel, rule, count)``
    triples sorted by key.
    """
    unknown = tuple(
        (rel, rule, count)
        for (rel, rule), count in sorted(allowed.items())
        if rule not in known_rules
    )
    for rel, rule, _count in unknown:
        del allowed[(rel, rule)]
    return unknown


def write_baseline(findings: Iterable[Finding], path: Union[str, Path]) -> None:
    Path(path).write_text(format_baseline(findings))
