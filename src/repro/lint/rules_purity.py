"""Purity rules: MUT001 (argument mutation), OBS001 (obs discipline).

MUT001 keeps the image-processing layers referentially transparent: the
capture cache and the parallel executor both assume that running a stage
twice on the same array yields the same bits and leaves the input
untouched. OBS001 enforces the observability contract — hooks are
side-band, their results never steer results.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from .context import ModuleContext
from .findings import Finding
from .registry import Rule, register

__all__ = ["NoArgumentMutation", "ObsHookDiscipline"]


#: Method calls that mutate their receiver in place.
_MUTATING_METHODS = frozenset(
    {
        "fill", "sort", "put", "resize", "itemset", "setflags", "partition",
        "append", "extend", "insert", "remove", "reverse", "clear", "update",
        "pop", "popitem", "setdefault", "add", "discard",
    }
)


@register
class NoArgumentMutation(Rule):
    """MUT001: pure-function modules must not mutate ndarray parameters."""

    name = "MUT001"
    summary = (
        "no in-place mutation of parameters (x *= ..., x[...] = ..., "
        "out=x) in isp/stages.py, codecs/, imaging/, kernels/"
    )

    #: The referentially transparent layers the capture cache relies on.
    scope = ("isp/stages.py",)
    scope_prefixes = ("codecs/", "imaging/", "kernels/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel not in self.scope and not ctx.rel.startswith(
            self.scope_prefixes
        ):
            return
        for node in ctx.walk():
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(ctx, node)

    def _check_function(self, ctx: ModuleContext, func) -> Iterator[Finding]:
        args = func.args
        params = {
            a.arg
            for a in (
                list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
            )
        }
        for extra in (args.vararg, args.kwarg):
            if extra is not None:
                params.add(extra.arg)
        params -= {"self", "cls"}
        if not params:
            return
        # Walk the body but stop at nested defs/lambdas: they shadow the
        # parameter names and get their own check() pass.
        stack = list(ast.iter_child_nodes(func))
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            yield from self._check_node(ctx, node, params)
            stack.extend(ast.iter_child_nodes(node))

    def _check_node(
        self, ctx: ModuleContext, node: ast.AST, params: Set[str]
    ) -> Iterator[Finding]:
        def is_param(expr: Optional[ast.AST]) -> bool:
            return isinstance(expr, ast.Name) and expr.id in params

        if isinstance(node, ast.AugAssign):
            target = node.target
            if is_param(target):
                yield self.finding(
                    ctx,
                    node,
                    f"augmented assignment mutates parameter "
                    f"{target.id!r} in place; rebind a new value instead",
                )
            elif isinstance(target, ast.Subscript) and is_param(target.value):
                yield self.finding(
                    ctx,
                    node,
                    f"writes into parameter {target.value.id!r} via "
                    "subscript; operate on a copy",
                )
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Subscript) and is_param(target.value):
                    yield self.finding(
                        ctx,
                        target,
                        f"writes into parameter {target.value.id!r} via "
                        "subscript; operate on a copy",
                    )
        elif isinstance(node, ast.Call):
            for kw in node.keywords:
                if kw.arg == "out" and is_param(kw.value):
                    yield self.finding(
                        ctx,
                        node,
                        f"out={kw.value.id} writes the result into a "
                        "parameter; allocate a fresh array",
                    )
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATING_METHODS
                and is_param(func.value)
            ):
                yield self.finding(
                    ctx,
                    node,
                    f"{func.value.id}.{func.attr}() mutates a parameter "
                    "in place; copy first",
                )


#: obs helpers that must be bare expression statements (fire and forget).
_OBS_STATEMENT_ONLY = frozenset({"count", "gauge", "observe"})


@register
class ObsHookDiscipline(Rule):
    """OBS001: obs hooks are side-band — with-blocks and bare statements."""

    name = "OBS001"
    summary = (
        "obs hooks follow the no-op pattern: span() under `with`, "
        "count/gauge/observe as statements, nothing returned"
    )

    #: The obs package itself and the linter are outside the contract.
    exempt_prefixes = ("obs/", "lint/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel.startswith(self.exempt_prefixes):
            return
        obs_names = {
            local for local, canon in ctx.aliases.items() if canon == "repro.obs"
        }
        if not obs_names:
            return

        statement_calls: Set[int] = set()
        with_calls: Set[int] = set()
        for node in ctx.walk():
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                statement_calls.add(id(node.value))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        with_calls.add(id(item.context_expr))

        for node in ctx.walk():
            if isinstance(node, ast.Return) and node.value is not None:
                for inner in ast.walk(node.value):
                    if isinstance(inner, ast.Call) and self._helper(
                        ctx, inner, obs_names
                    ):
                        yield self.finding(
                            ctx,
                            node,
                            "obs results must not flow into returned "
                            "values; observability is side-band only",
                        )
                        break
                continue
            if not isinstance(node, ast.Call):
                continue
            helper = self._helper(ctx, node, obs_names)
            if helper in _OBS_STATEMENT_ONLY and id(node) not in statement_calls:
                yield self.finding(
                    ctx,
                    node,
                    f"obs.{helper}() is fire-and-forget; its result must "
                    "not be used",
                )
            elif helper == "span" and id(node) not in with_calls:
                yield self.finding(
                    ctx,
                    node,
                    "obs.span() must be the context expression of a "
                    "`with` block",
                )

    @staticmethod
    def _helper(
        ctx: ModuleContext, call: ast.Call, obs_names: Set[str]
    ) -> Optional[str]:
        """The obs helper name this call invokes, if it is one."""
        func = call.func
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in obs_names
        ):
            return func.attr
        return None

