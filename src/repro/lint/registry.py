"""Rule base class and the registry behind ``--rule`` / ``--list-rules``.

A rule is a named check with a severity and a ``check(ctx)`` generator
yielding findings for one :class:`~repro.lint.context.ModuleContext`.
Rules self-register at import time via the :func:`register` decorator;
:func:`all_rules` imports the rule modules and returns the registry
sorted by name, so adding a rule module is the only step to extend the
linter.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple, Type

from .context import ModuleContext
from .findings import Finding, Severity

__all__ = ["Rule", "register", "all_rules", "get_rules"]


class Rule:
    """One named invariant check.

    Subclasses set ``name`` (the ``RULEnnn`` id), ``summary`` (one line,
    shown by ``--list-rules`` and in docs), ``severity``, and implement
    :meth:`check`. ``check`` receives every file the engine walks; rules
    that only apply to some modules scope themselves via ``ctx.rel``.
    """

    name: str = ""
    summary: str = ""
    severity: Severity = Severity.ERROR

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def finding(self, ctx: ModuleContext, node, message: str) -> Finding:
        return ctx.finding(self.name, node, message, severity=self.severity)


# Populated once by the @register decorators as the rule modules import;
# read-only afterwards, so sharing it across processes is safe.
_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the registry."""
    rule = cls()
    if not rule.name:
        raise ValueError(f"rule class {cls.__name__} has no name")
    if rule.name in _REGISTRY:
        raise ValueError(f"duplicate rule name {rule.name!r}")
    _REGISTRY[rule.name] = rule
    return cls


def all_rules() -> Tuple[Rule, ...]:
    """Every registered rule, sorted by name."""
    # Importing the rule modules triggers their @register decorators.
    from . import rules_purity  # noqa: F401

    return tuple(_REGISTRY[name] for name in sorted(_REGISTRY))


def get_rules(names: Optional[Iterable[str]] = None) -> Tuple[Rule, ...]:
    """The selected rules (all of them when ``names`` is None)."""
    rules = all_rules()
    if names is None:
        return rules
    wanted = {n.upper() for n in names}
    unknown = wanted - {r.name for r in rules}
    if unknown:
        known = ", ".join(r.name for r in rules)
        raise KeyError(f"unknown rule(s) {sorted(unknown)}; known rules: {known}")
    return tuple(r for r in rules if r.name in wanted)
