"""Per-module analysis context: parsed AST, import aliases, helpers.

Every rule receives one :class:`ModuleContext` per file. The context
owns the pieces rules keep needing:

* the parsed ``ast`` tree and raw source lines;
* ``rel``, the module's path relative to the linted package root, which
  rules use to scope themselves (e.g. MUT001 checks only
  ``isp/stages.py``, ``codecs/``, ``imaging/`` and ``kernels/``);
* an import-alias map so ``np.load`` and ``numpy.load`` resolve to the
  same canonical dotted name, and
  ``from .. import obs`` is recognized as :mod:`repro.obs` regardless of
  the importing module's depth.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, Optional, Tuple

from .findings import Finding, Severity

__all__ = ["ModuleContext", "dotted_name"]


def dotted_name(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """The ``("np", "random", "rand")`` chain of a Name/Attribute, if any."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _package_parts(rel: str) -> list:
    """Package path of the module at ``rel``, as parts under ``repro``.

    ``"runner/seeds.py"`` lives in package ``["runner"]``;
    ``"runner/__init__.py"`` *is* package ``["runner"]``; a top-level
    ``"cli.py"`` lives in the root package ``[]``.
    """
    parts = (rel[:-3] if rel.endswith(".py") else rel).split("/")
    parts = [p for p in parts if p]
    if parts and parts[-1] == "__init__":
        return parts[:-1]
    return parts[:-1]


def _collect_aliases(tree: ast.AST, rel: str = "") -> Dict[str, str]:
    """Map locally bound names to canonical dotted module paths.

    Relative imports are rooted at ``repro`` by convention (the linter
    targets this one package) and resolved against the importing
    module's own package depth: in ``runner/seeds.py``, ``from . import
    cache`` binds ``repro.runner.cache`` and ``from ..obs import span``
    binds ``repro.obs.span``. Without ``rel`` (scratch parses), level-1
    imports anchor at the root package — the pre-existing behaviour.
    """
    package = _package_parts(rel)
    aliases: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                bound = name.asname or name.name.split(".", 1)[0]
                canonical = name.name if name.asname else name.name.split(".", 1)[0]
                aliases[bound] = canonical
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                keep = max(len(package) - (node.level - 1), 0)
                parts = ["repro"] + package[:keep]
                if node.module:
                    parts.append(node.module)
                base = ".".join(parts)
            else:
                base = node.module or ""
            for name in node.names:
                if name.name == "*":
                    continue
                bound = name.asname or name.name
                aliases[bound] = f"{base}.{name.name}" if base else name.name
    return aliases


@dataclass
class ModuleContext:
    """Everything a rule needs to check one module."""

    path: str  #: display path, as given to the engine
    rel: str  #: posix path relative to the linted package root
    tree: ast.Module
    lines: Tuple[str, ...]
    aliases: Dict[str, str] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, rel: str, source: str) -> "ModuleContext":
        tree = ast.parse(source, filename=path)
        return cls(
            path=path,
            rel=rel,
            tree=tree,
            lines=tuple(source.splitlines()),
            aliases=_collect_aliases(tree, rel),
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name of a Name/Attribute chain, or ``None``.

        ``np.random.rand`` resolves to ``"numpy.random.rand"`` when the
        module did ``import numpy as np``; unimported bare chains pass
        through verbatim.
        """
        parts = dotted_name(node)
        if parts is None:
            return None
        head = self.aliases.get(parts[0], parts[0])
        return ".".join((head,) + parts[1:])

    def finding(
        self,
        rule: str,
        node: ast.AST,
        message: str,
        severity: Severity = Severity.ERROR,
    ) -> Finding:
        """Build a :class:`Finding` anchored at ``node``'s location."""
        return Finding(
            rule=rule,
            path=self.path,
            rel=self.rel,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            message=message,
            severity=severity,
        )

    def walk(self) -> Iterator[ast.AST]:
        return ast.walk(self.tree)
