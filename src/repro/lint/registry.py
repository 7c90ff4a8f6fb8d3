"""Rule base class and the registry behind ``--rule`` / ``--list-rules``.

A rule is a named check with a severity and a ``check(ctx)`` generator
yielding findings for one :class:`~repro.lint.context.ModuleContext`.
Rules self-register at import time via the :func:`register` decorator;
:func:`all_rules` imports the rule modules and returns the registry
sorted by name, so adding a rule module is the only step to extend the
linter.

Whole-program rules (:class:`ProgramRule`) run after every file is
parsed: instead of ``check(ctx)`` per module they implement
``check_program(program)`` against the linked
:class:`~repro.lint.callgraph.Program`, so they can follow an RNG or a
blocking call across module boundaries.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Optional, Tuple, Type

from .context import ModuleContext
from .findings import Finding, Severity

__all__ = ["Rule", "ProgramRule", "register", "all_rules", "get_rules"]


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


class ProgramRule(Rule):
    """A rule that needs the whole program, not one module at a time.

    The engine calls :meth:`check_program` once per run with the linked
    :class:`~repro.lint.callgraph.Program`; :meth:`check` is a no-op so
    program rules slot into the same registry/selection machinery.
    """

    whole_program = True

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        return iter(())

    def check_program(self, program) -> Iterator[Finding]:  # pragma: no cover
        raise NotImplementedError

    def program_finding(self, fn, line: int, col: int, message: str) -> Finding:
        """Build a finding anchored inside ``fn`` (a FunctionSummary)."""
        return Finding(
            rule=self.name,
            path=fn.path,
            rel=fn.rel,
            line=line,
            col=col,
            message=message,
            severity=self.severity,
        )


# Populated once by the @register decorators as the rule modules import;
# read-only afterwards, so sharing it across processes is safe.
_REGISTRY: Dict[str, Rule] = {}  # lint: disable=PROC001


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
    from . import (  # noqa: F401
        rules_async,
        rules_determinism,
        rules_effects,
        rules_purity,
        rules_seed,
    )

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
