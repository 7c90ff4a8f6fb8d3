"""Project-wide call graph, per-function summaries, and the summary cache.

The whole-program rules (ASY001-003, PUR002) need to see *across*
module boundaries: a blocking call three frames below an ``async def``
stalls the event loop, and an obs value read back two modules below a
codec steers pixels, without any single-file rule firing. This module
builds that view in two stages:

1. **Summaries** — :func:`summarize_module` reduces one parsed module to
   a :class:`ModuleSummary`: per-function call sites (with ``await`` /
   executor-shim flags), obs value-uses, locks held across ``await``,
   bare ``create_task`` statements, and direct blocking primitives. A
   summary depends only on its own module's source, so it is cached by
   content hash (:class:`SummaryCache`) and survives across runs.
2. **Linking** — :class:`Program` indexes every summary, resolves call
   targets (import aliases, ``self.`` methods, annotated attributes and
   locals, base classes), exposes the resolved edges
   (:meth:`Program.callees`), and answers "does this async function
   transitively block, and via which chain?".

Resolution is deliberately conservative: an edge only exists when the
target is unambiguous, so the passes report high-confidence findings
instead of drowning the gate in maybes.
"""

from __future__ import annotations

import ast
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .context import ModuleContext, dotted_name

__all__ = [
    "CallSite",
    "Fact",
    "FunctionSummary",
    "ClassInfo",
    "ModuleSummary",
    "SummaryCache",
    "Program",
    "build_program",
    "module_name",
    "summarize_module",
]

#: Bump whenever summary extraction changes shape or semantics; stale
#: cache files are discarded wholesale rather than misread.
#: v2: per-function tensor dataflow info + per-module import aliases
#: (exact link-time resolution replaced the suffix index).
#: v3: per-function tensor dataflow facts dropped with the numeric rules.
#: v4: RNG births, parameter names and RNG parameters dropped with the
#: seed-provenance rule (SEED001).
SUMMARY_VERSION = "repro-lint-summary-v4"

#: Calls that block the calling thread (and therefore the event loop).
_BLOCKING_CALLS = frozenset(
    {
        "time.sleep",
        "socket.create_connection",
        "socket.socket",
        "subprocess.run",
        "subprocess.call",
        "subprocess.check_call",
        "subprocess.check_output",
        "subprocess.Popen",
        "urllib.request.urlopen",
        "numpy.load",
        "numpy.save",
        "numpy.savez",
        "numpy.savez_compressed",
    }
)

#: Method names that are synchronous IO on any plausible receiver.
_BLOCKING_ATTRS = frozenset(
    {"read_text", "read_bytes", "write_text", "write_bytes"}
)

#: ``loop.run_in_executor(...)`` / ``asyncio.to_thread(...)``: calls in
#: their argument position run off-loop, so they shield blocking work.
_EXECUTOR_SHIMS = frozenset({"run_in_executor", "to_thread"})

#: Homogeneous-container annotation heads whose element type is worth
#: tracking: iterating one binds the loop variable to the element class.
_CONTAINER_NAMES = (
    "List", "Sequence", "Tuple", "Iterable", "Iterator", "Set", "FrozenSet",
    "list", "sequence", "tuple", "set", "frozenset",
)

#: obs helpers that record a measurement; their return value must never
#: be consumed (statement/with position only) — see OBS001/PUR002.
_OBS_MEASUREMENT_HELPERS = frozenset({"count", "gauge", "observe"})

#: Constructors whose instances are locks/semaphores for ASY002.
_LOCK_CONSTRUCTORS = frozenset(
    {
        "threading.Lock",
        "threading.RLock",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Condition",
        "asyncio.Lock",
        "asyncio.Semaphore",
        "asyncio.BoundedSemaphore",
        "asyncio.Condition",
        "multiprocessing.Lock",
    }
)


def module_name(rel: str) -> str:
    """Canonical dotted module name for a scope-relative path.

    Every linted tree is rooted at ``repro`` by convention (matching
    how :mod:`repro.lint.context` resolves relative imports), so fixture
    packages under a tmp root link exactly like the real package.
    """
    parts = rel[:-3].split("/") if rel.endswith(".py") else rel.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(["repro"] + [p for p in parts if p])


# ----------------------------------------------------------------------
# Summary data model (JSON-serializable for the cache)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CallSite:
    """One call expression inside a function body."""

    raw: str  #: the call as written (display only)
    target: Optional[str]  #: canonical dotted target, if determinable
    line: int
    col: int
    awaited: bool = False  #: directly under an ``await``
    shielded: bool = False  #: inside run_in_executor/to_thread arguments


@dataclass(frozen=True)
class Fact:
    """A located single fact (obs use, lock-across-await, bare task...)."""

    line: int
    col: int
    what: str
    shielded: bool = False


@dataclass(frozen=True)
class FunctionSummary:
    """Everything the program rules need to know about one function."""

    qual: str  #: dotted qualname within the module ("Cls.meth", "f.inner")
    rel: str
    path: str
    line: int
    col: int
    is_async: bool
    calls: Tuple[CallSite, ...]
    obs_uses: Tuple[Fact, ...]
    lock_awaits: Tuple[Fact, ...]
    bare_tasks: Tuple[Fact, ...]
    blocking: Tuple[Fact, ...]

    @property
    def key(self) -> str:
        return f"{module_name(self.rel)}.{self.qual}"

    @property
    def display(self) -> str:
        return f"{self.rel}:{self.qual}"


@dataclass(frozen=True)
class ClassInfo:
    """Per-class resolution aids: bases and attribute types."""

    name: str
    rel: str
    bases: Tuple[str, ...]  #: canonical dotted base names
    attr_types: Tuple[Tuple[str, str], ...]  #: (attr, canonical class)
    methods: Tuple[str, ...]

    @property
    def key(self) -> str:
        return f"{module_name(self.rel)}.{self.name}"


@dataclass(frozen=True)
class ModuleSummary:
    """One module's functions and classes, cacheable by content hash."""

    rel: str
    path: str
    sha: str
    functions: Tuple[FunctionSummary, ...]
    classes: Tuple[ClassInfo, ...]
    #: Import aliases, for exact link-time resolution of re-exports
    #: (the context is gone when a summary is reloaded from cache).
    aliases: Tuple[Tuple[str, str], ...] = ()


# ----------------------------------------------------------------------
# Extraction
# ----------------------------------------------------------------------
def _annotation_text(node: Optional[ast.AST]) -> str:
    if node is None:
        return ""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value  # string annotations ('Phone')
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed annotation
        return ""


class _ModuleExtractor:
    """Single pass turning one :class:`ModuleContext` into summaries."""

    def __init__(self, ctx: ModuleContext):
        self.ctx = ctx
        self.mod = module_name(ctx.rel)
        self.obs_names = {
            local for local, canon in ctx.aliases.items() if canon == "repro.obs"
        }
        self.top_defs: Dict[str, str] = {}  # name -> "func" | "class"
        self.local_returns: Dict[str, str] = {}  # top-level fn -> return ann
        self.all_quals: Set[str] = set()
        self.classes: List[ClassInfo] = []
        self.functions: List[FunctionSummary] = []
        # Statement-, with-, and return-position call ids, module-wide
        # (the OBS001 notion of where an obs value may and may not flow).
        self.stmt_calls: Set[int] = set()
        self.with_calls: Set[int] = set()
        self.return_calls: Set[int] = set()

    def run(self) -> Tuple[Tuple[FunctionSummary, ...], Tuple[ClassInfo, ...]]:
        tree = self.ctx.tree
        for node in ast.walk(tree):
            if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
                self.stmt_calls.add(id(node.value))
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    if isinstance(item.context_expr, ast.Call):
                        self.with_calls.add(id(item.context_expr))
            elif isinstance(node, ast.Return) and node.value is not None:
                for inner in ast.walk(node.value):
                    if isinstance(inner, ast.Call):
                        self.return_calls.add(id(inner))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.top_defs[stmt.name] = "func"
                ann = self._canon_type(_annotation_text(stmt.returns))
                if ann:
                    self.local_returns[stmt.name] = ann
            elif isinstance(stmt, ast.ClassDef):
                self.top_defs[stmt.name] = "class"
        self._collect_quals(tree, prefix="")
        # Module-level statements form a synthetic "<module>" function so
        # import-time calls participate in the graph.
        self._extract_function(
            node=None, qual="<module>", body=tree.body, is_async=False,
            args=None, cls=None,
        )
        self._walk_defs(tree.body, prefix="", cls=None)
        return tuple(self.functions), tuple(self.classes)

    # -- qual discovery ------------------------------------------------
    def _collect_quals(self, node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{child.name}"
                self.all_quals.add(qual)
                self._collect_quals(child, prefix=f"{qual}.")
            elif isinstance(child, ast.ClassDef):
                self._collect_quals(child, prefix=f"{prefix}{child.name}.")
            else:
                self._collect_quals(child, prefix=prefix)

    # -- definition walk -----------------------------------------------
    def _walk_defs(self, body, prefix: str, cls: Optional[ast.ClassDef]) -> None:
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{prefix}{stmt.name}"
                self._extract_function(
                    node=stmt,
                    qual=qual,
                    body=stmt.body,
                    is_async=isinstance(stmt, ast.AsyncFunctionDef),
                    args=stmt.args,
                    cls=cls,
                )
                self._walk_defs(stmt.body, prefix=f"{qual}.", cls=cls)
            elif isinstance(stmt, ast.ClassDef):
                self._extract_class(stmt, prefix)
                self._walk_defs(
                    stmt.body, prefix=f"{prefix}{stmt.name}.", cls=stmt
                )

    def _extract_class(self, node: ast.ClassDef, prefix: str) -> None:
        bases = []
        for base in node.bases:
            canon = self._canon_type(_annotation_text(base))
            if canon:
                bases.append(canon)
        attr_types: Dict[str, str] = {}
        methods = []
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                canon = self._canon_type(_annotation_text(stmt.annotation))
                if canon:
                    attr_types[stmt.target.id] = canon
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                methods.append(stmt.name)
                param_types = {}
                for a in (
                    list(stmt.args.posonlyargs)
                    + list(stmt.args.args)
                    + list(stmt.args.kwonlyargs)
                ):
                    canon = self._canon_type(_annotation_text(a.annotation))
                    if canon:
                        param_types[a.arg] = canon
                for inner in ast.walk(stmt):
                    attr, canon = self._self_attr_binding(inner, param_types)
                    if attr and canon:
                        attr_types.setdefault(attr, canon)
        self.classes.append(
            ClassInfo(
                name=f"{prefix}{node.name}",
                rel=self.ctx.rel,
                bases=tuple(bases),
                attr_types=tuple(sorted(attr_types.items())),
                methods=tuple(methods),
            )
        )

    def _self_attr_binding(
        self, node: ast.AST, param_types: Optional[Dict[str, str]] = None
    ) -> Tuple[str, str]:
        """``self.x = SomeClass(...)`` / ``self.x: T`` / ``self.x = param``."""
        target = value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign):
            target = node.target
            ann = self._canon_type(_annotation_text(node.annotation))
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and ann
            ):
                return target.attr, ann
            value = node.value
        if (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
        ):
            if isinstance(value, ast.Call):
                canon = self._constructor_type(value)
                if canon:
                    return target.attr, canon
            if isinstance(value, ast.Name) and param_types:
                canon = param_types.get(value.id, "")
                if canon:
                    return target.attr, canon
        return "", ""

    def _constructor_type(self, call: ast.Call) -> str:
        """The class a constructor-looking call instantiates, if any."""
        func = call.func
        if isinstance(func, ast.Name) and self.top_defs.get(func.id) == "class":
            return f"{self.mod}.{func.id}"
        if isinstance(func, ast.Name) and func.id in self.local_returns:
            return self.local_returns[func.id]
        canon = self.ctx.resolve(func)
        if canon and canon.rsplit(".", 1)[-1][:1].isupper():
            return canon
        return ""

    def _canon_type(self, text: str) -> str:
        """Canonicalize an annotation/base like ``Phone`` or ``m.Cls``.

        ``Optional[X]`` / ``X | None`` unwrap to ``X``: for call-target
        binding, "maybe None" still tells us which class the attribute's
        methods come from when it is set. Homogeneous containers
        (``List[X]``, ``Sequence[X]``, ``Tuple[X, ...]``) canonicalize
        to ``X[]`` — the element type, marked so only *iteration*
        targets bind to it, never the container itself.
        """
        text = text.strip().strip("'\"")
        while True:
            for prefix in ("Optional[", "typing.Optional["):
                if text.startswith(prefix) and text.endswith("]"):
                    text = text[len(prefix):-1].strip()
                    break
            else:
                break
        for none_pattern in (" | None", "None | "):
            text = text.replace(none_pattern, "").strip()
        for container in _CONTAINER_NAMES:
            for prefix in (f"{container}[", f"typing.{container}["):
                if text.startswith(prefix) and text.endswith("]"):
                    inner = text[len(prefix):-1].strip()
                    if inner.endswith(", ..."):
                        inner = inner[:-len(", ...")].strip()
                    elem = self._canon_type(inner)
                    return f"{elem}[]" if elem else ""
        if not text or not text.replace(".", "").replace("_", "").isalnum():
            return ""
        head, _, tail = text.partition(".")
        if not tail and self.top_defs.get(head) == "class":
            return f"{self.mod}.{head}"
        resolved = self.ctx.aliases.get(head)
        if resolved is None:
            return ""
        return f"{resolved}.{tail}" if tail else resolved

    # -- per-function extraction ---------------------------------------
    def _extract_function(self, node, qual, body, is_async, args, cls) -> None:
        local_types: Dict[str, str] = {}
        if args is not None:
            for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
                canon = self._canon_type(_annotation_text(a.annotation))
                if canon:
                    local_types[a.arg] = canon
        # Pre-pass: local assignments and loops for type binding.
        for stmt in self._shallow_walk(body):
            if isinstance(stmt, (ast.For, ast.AsyncFor)):
                self._bind_loop_element(stmt, cls, local_types)
            if (
                isinstance(stmt, ast.Assign)
                and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and isinstance(stmt.value, ast.Call)
            ):
                canon = self._constructor_type(stmt.value)
                if canon:
                    local_types.setdefault(stmt.targets[0].id, canon)

        facts = _FunctionFacts()
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            self._visit(stmt, facts, local_types, qual=qual, cls=cls,
                        shielded=False)
        anchor = node if node is not None else (body[0] if body else None)
        self.functions.append(
            FunctionSummary(
                qual=qual,
                rel=self.ctx.rel,
                path=self.ctx.path,
                line=getattr(anchor, "lineno", 1),
                col=getattr(anchor, "col_offset", 0) + 1,
                is_async=is_async,
                calls=tuple(facts.calls),
                obs_uses=tuple(facts.obs_uses),
                lock_awaits=tuple(facts.lock_awaits),
                bare_tasks=tuple(facts.bare_tasks),
                blocking=tuple(facts.blocking),
            )
        )

    def _bind_loop_element(self, stmt, cls, local_types) -> None:
        """``for stage in self.stages:`` binds ``stage`` to the element
        type of the attribute's container annotation.

        Like ``self.attr.method`` calls, the binding is deferred to link
        time as ``mod.Cls.<elem>attr`` — the attribute's recorded type
        must end in ``[]`` (a container) for the element to resolve, so
        a scalar attribute never leaks a phantom type onto a loop var.
        ``enumerate(self.attr)`` with a two-name tuple target binds the
        second name.
        """
        target, source = stmt.target, stmt.iter
        if (
            isinstance(source, ast.Call)
            and isinstance(source.func, ast.Name)
            and source.func.id == "enumerate"
            and source.args
        ):
            source = source.args[0]
            if isinstance(target, ast.Tuple) and len(target.elts) == 2:
                target = target.elts[1]
        if not isinstance(target, ast.Name):
            return
        if (
            cls is not None
            and isinstance(source, ast.Attribute)
            and isinstance(source.value, ast.Name)
            and source.value.id == "self"
        ):
            local_types.setdefault(
                target.id, f"{self.mod}.{cls.name}.<elem>{source.attr}"
            )

    def _shallow_walk(self, body) -> Iterator[ast.AST]:
        """Walk statements without descending into nested defs."""
        stack = list(body)
        while stack:
            node = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            yield node
            stack.extend(ast.iter_child_nodes(node))

    def _visit(self, node, facts, local_types, qual, cls, shielded) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        awaited_call = None
        if isinstance(node, ast.Await) and isinstance(node.value, ast.Call):
            awaited_call = node.value
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call):
            call = node.value
            name = self._call_attr_name(call)
            if name in ("create_task", "ensure_future"):
                facts.bare_tasks.append(
                    Fact(call.lineno, call.col_offset + 1, name)
                )
        if isinstance(node, (ast.With, ast.AsyncWith)):
            self._check_lock_across_await(node, facts)
        if isinstance(node, ast.Call):
            self._record_call(
                node, facts, local_types,
                qual=qual, cls=cls, shielded=shielded, awaited=False,
            )
            return  # _record_call recursed into children itself
        for child in ast.iter_child_nodes(node):
            if child is awaited_call:
                self._record_call(
                    child, facts, local_types,
                    qual=qual, cls=cls, shielded=shielded, awaited=True,
                )
            else:
                self._visit(child, facts, local_types,
                            qual=qual, cls=cls, shielded=shielded)

    def _record_call(self, call, facts, local_types, qual, cls, shielded,
                     awaited) -> None:
        raw = self._call_display(call)
        target = self._call_target(call, qual, cls, local_types)
        canon = self.ctx.resolve(call.func)
        attr_name = self._call_attr_name(call)
        shim = attr_name in _EXECUTOR_SHIMS

        if target is not None or canon is not None:
            facts.calls.append(
                CallSite(
                    raw=raw,
                    target=target or canon,
                    line=call.lineno,
                    col=call.col_offset + 1,
                    awaited=awaited,
                    shielded=shielded,
                )
            )
        self._record_blocking(call, canon, attr_name, facts, shielded)
        self._record_obs_use(call, facts)

        child_shield = shielded or shim
        for child in ast.iter_child_nodes(call):
            self._visit(child, facts, local_types,
                        qual=qual, cls=cls, shielded=child_shield)

    def _record_blocking(self, call, canon, attr_name, facts, shielded) -> None:
        what = None
        func = call.func
        if canon in _BLOCKING_CALLS:
            what = canon
        elif isinstance(func, ast.Name) and func.id in ("open", "input"):
            what = func.id
        elif attr_name in _BLOCKING_ATTRS:
            what = f".{attr_name}()"
        elif attr_name == "result" and not call.args and not call.keywords:
            what = ".result()"
        if what is not None:
            facts.blocking.append(
                Fact(call.lineno, call.col_offset + 1, what, shielded=shielded)
            )

    def _record_obs_use(self, call, facts) -> None:
        """Value-uses of obs helpers, mirroring OBS001's contract.

        Holding the sink handle (``ob = obs.active()``) is how modules
        write to obs at all, so the handle accessor in plain value
        position is fine. What counts as a violation: a *measurement*
        helper's return value consumed anywhere, or any obs helper
        flowing into a ``return`` — both put observability data on a
        path that can reach computation.
        """
        func = call.func
        if not (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)
            and func.value.id in self.obs_names
        ):
            return
        if id(call) in self.return_calls:
            pass  # obs value flowing into a return is always a use
        elif id(call) in self.stmt_calls or id(call) in self.with_calls:
            return
        elif func.attr not in _OBS_MEASUREMENT_HELPERS:
            return
        facts.obs_uses.append(
            Fact(call.lineno, call.col_offset + 1, f"obs.{func.attr}()")
        )

    def _check_lock_across_await(self, node, facts) -> None:
        for item in node.items:
            if not self._lock_like(item.context_expr):
                continue
            for inner in self._shallow_walk(node.body):
                if isinstance(inner, ast.Await):
                    held = "with" if isinstance(node, ast.With) else "async with"
                    facts.lock_awaits.append(
                        Fact(
                            node.lineno,
                            node.col_offset + 1,
                            f"{held} {_expr_text(item.context_expr)}",
                        )
                    )
                    break

    def _lock_like(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            canon = self.ctx.resolve(expr.func) or ""
            return canon in _LOCK_CONSTRUCTORS
        parts = dotted_name(expr)
        if not parts:
            return False
        last = parts[-1].lower()
        return "lock" in last or last.startswith("sem")

    def _call_attr_name(self, call: ast.Call) -> str:
        return call.func.attr if isinstance(call.func, ast.Attribute) else ""

    def _call_display(self, call: ast.Call) -> str:
        parts = dotted_name(call.func)
        if parts:
            return ".".join(parts)
        return self._call_attr_name(call) or "<call>"

    def _call_target(self, call, qual, cls, local_types) -> Optional[str]:
        """Canonical dotted target for graph linking, when determinable."""
        parts = dotted_name(call.func)
        if parts is None:
            return None
        head = parts[0]
        if head in ("self", "cls") and cls is not None:
            if len(parts) == 2:
                return f"{self.mod}.{cls.name}.{parts[1]}"
            if len(parts) == 3:
                # "self.attr.method": the attribute's class is recorded in
                # ClassInfo.attr_types and resolved at link time.
                return f"{self.mod}.{cls.name}.<attr>{parts[1]}.{parts[2]}"
            return None
        if head in local_types and len(parts) == 2:
            return f"{local_types[head]}.{parts[1]}"
        if len(parts) == 1:
            # Bare name: enclosing nested defs first, then module scope.
            scope = qual if qual != "<module>" else ""
            while True:
                candidate = f"{scope}.{head}" if scope else head
                if candidate in self.all_quals:
                    return f"{self.mod}.{candidate}"
                if not scope:
                    break
                scope = scope.rpartition(".")[0]
            if self.top_defs.get(head) == "class":
                return f"{self.mod}.{head}.__init__"
            if head in self.ctx.aliases:
                return self.ctx.aliases[head]
            return None
        return self.ctx.resolve(call.func)


class _FunctionFacts:
    """Mutable accumulator while walking one function body."""

    def __init__(self) -> None:
        self.calls: List[CallSite] = []
        self.obs_uses: List[Fact] = []
        self.lock_awaits: List[Fact] = []
        self.bare_tasks: List[Fact] = []
        self.blocking: List[Fact] = []


def _expr_text(node: ast.AST) -> str:
    try:
        text = ast.unparse(node)
    except Exception:  # pragma: no cover - unparse of synthetic nodes
        return "<expr>"
    return text if len(text) <= 60 else text[:57] + "..."


def summarize_module(ctx: ModuleContext, sha: str) -> ModuleSummary:
    """Reduce one parsed module to its cacheable summary."""
    functions, classes = _ModuleExtractor(ctx).run()
    return ModuleSummary(
        rel=ctx.rel, path=ctx.path, sha=sha, functions=functions,
        classes=classes, aliases=tuple(sorted(ctx.aliases.items())),
    )


def source_sha(source: str) -> str:
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Persistent summary cache
# ----------------------------------------------------------------------
class SummaryCache:
    """``summaries.json`` under ``--cache-dir``: rel -> (sha, summary)."""

    def __init__(self, directory: Path):
        self.path = Path(directory) / "summaries.json"
        self._entries: Dict[str, Dict] = self._load()
        self._dirty = False

    def _load(self) -> Dict[str, Dict]:
        try:
            payload = json.loads(self.path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return {}
        if payload.get("version") != SUMMARY_VERSION:
            return {}
        modules = payload.get("modules")
        return modules if isinstance(modules, dict) else {}

    def get(self, rel: str, sha: str, path: str) -> Optional[ModuleSummary]:
        entry = self._entries.get(rel)
        if entry is None or entry.get("sha") != sha or entry.get("path") != path:
            return None
        try:
            return _summary_from_dict(entry["summary"])
        except (KeyError, TypeError):
            return None

    def put(self, summary: ModuleSummary) -> None:
        self._entries[summary.rel] = {
            "sha": summary.sha,
            "path": summary.path,
            "summary": _summary_to_dict(summary),
        }
        self._dirty = True

    def save(self) -> None:
        if not self._dirty:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"version": SUMMARY_VERSION, "modules": self._entries}
        self.path.write_text(
            json.dumps(payload, sort_keys=True), encoding="utf-8"
        )
        self._dirty = False


def _summary_to_dict(summary: ModuleSummary) -> Dict:
    return {
        "rel": summary.rel,
        "path": summary.path,
        "sha": summary.sha,
        "functions": [
            {
                "qual": f.qual, "rel": f.rel, "path": f.path, "line": f.line,
                "col": f.col, "is_async": f.is_async,
                "calls": [list(astuple) for astuple in (
                    (c.raw, c.target, c.line, c.col, c.awaited, c.shielded)
                    for c in f.calls
                )],
                "obs_uses": [_fact_to_list(x) for x in f.obs_uses],
                "lock_awaits": [_fact_to_list(x) for x in f.lock_awaits],
                "bare_tasks": [_fact_to_list(x) for x in f.bare_tasks],
                "blocking": [_fact_to_list(x) for x in f.blocking],
            }
            for f in summary.functions
        ],
        "classes": [
            {
                "name": c.name, "rel": c.rel, "bases": list(c.bases),
                "attr_types": [list(pair) for pair in c.attr_types],
                "methods": list(c.methods),
            }
            for c in summary.classes
        ],
        "aliases": [list(pair) for pair in summary.aliases],
    }


def _fact_to_list(fact: Fact) -> List:
    return [fact.line, fact.col, fact.what, fact.shielded]


def _fact_from_list(raw: Sequence) -> Fact:
    return Fact(int(raw[0]), int(raw[1]), str(raw[2]), bool(raw[3]))


def _summary_from_dict(data: Dict) -> ModuleSummary:
    functions = tuple(
        FunctionSummary(
            qual=f["qual"], rel=f["rel"], path=f["path"], line=f["line"],
            col=f["col"], is_async=f["is_async"],
            calls=tuple(
                CallSite(
                    raw=c[0], target=c[1], line=c[2], col=c[3],
                    awaited=c[4], shielded=c[5],
                )
                for c in f["calls"]
            ),
            obs_uses=tuple(_fact_from_list(x) for x in f["obs_uses"]),
            lock_awaits=tuple(_fact_from_list(x) for x in f["lock_awaits"]),
            bare_tasks=tuple(_fact_from_list(x) for x in f["bare_tasks"]),
            blocking=tuple(_fact_from_list(x) for x in f["blocking"]),
        )
        for f in data["functions"]
    )
    classes = tuple(
        ClassInfo(
            name=c["name"], rel=c["rel"], bases=tuple(c["bases"]),
            attr_types=tuple((a, t) for a, t in c["attr_types"]),
            methods=tuple(c["methods"]),
        )
        for c in data["classes"]
    )
    return ModuleSummary(
        rel=data["rel"], path=data["path"], sha=data["sha"],
        functions=functions, classes=classes,
        aliases=tuple((a, b) for a, b in data.get("aliases", ())),
    )


# ----------------------------------------------------------------------
# Linking: the Program
# ----------------------------------------------------------------------
class Program:
    """Linked whole-program view over module summaries."""

    def __init__(self, modules: Sequence[ModuleSummary], stats: Dict[str, int]):
        self.modules = tuple(modules)
        self.stats = stats
        self.functions: Dict[str, FunctionSummary] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self._module_aliases: Dict[str, Dict[str, str]] = {}
        for mod in self.modules:
            for fn in mod.functions:
                self.functions[fn.key] = fn
            for cls in mod.classes:
                self.classes[cls.key] = cls
            self._module_aliases[module_name(mod.rel)] = dict(mod.aliases)
        self._edges: Dict[str, List[Tuple[CallSite, Optional[str]]]] = {}
        edge_count = 0
        for key, fn in self.functions.items():
            resolved = []
            for site in fn.calls:
                target = self._resolve_site(site, fn)
                resolved.append((site, target))
                if target is not None:
                    edge_count += 1
            self._edges[key] = resolved
        self._blocking_memo: Dict[str, Optional[Tuple[str, ...]]] = {}
        stats["nodes"] = len(self.functions)
        stats["edges"] = edge_count

    def _chase_alias(self, target: str) -> Optional[str]:
        """One re-export hop: rebase ``target`` through the alias map of
        its longest known module prefix.

        ``repro.runner.CaptureCache.get`` is not a definition key, but
        ``repro.runner`` is a known module whose ``__init__`` binds
        ``CaptureCache`` to ``repro.runner.cache.CaptureCache`` — so the
        target rebases to ``repro.runner.cache.CaptureCache.get``.
        """
        parts = target.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            aliases = self._module_aliases.get(".".join(parts[:cut]))
            if aliases is None:
                continue
            resolved = aliases.get(parts[cut])
            if resolved is None:
                return None
            return ".".join([resolved] + parts[cut + 1:])
        return None

    def _resolve_name(self, target: str, index: Dict[str, object]) -> Optional[str]:
        """Exact qualified-name resolution with re-export chasing.

        A target either *is* a definition key or rebases through module
        alias maps (``from .cache import CaptureCache`` in an
        ``__init__``) until it is one — no suffix matching, so two
        same-named helpers in sibling packages can never cross-link.
        """
        seen: Set[str] = set()
        current: Optional[str] = target
        while current is not None and current not in seen:
            if current in index:
                return current
            seen.add(current)
            current = self._chase_alias(current)
        return None

    def _resolve_site(
        self, site: CallSite, owner: FunctionSummary
    ) -> Optional[str]:
        target = site.target
        if target is None:
            return None
        if "<attr>" in target:
            # "mod.Cls.<attr>name.method": resolve via the class's
            # recorded attribute types, then method resolution.
            prefix, _, rest = target.partition(".<attr>")
            attr, _, method = rest.partition(".")
            cls = self._resolve_name(prefix, self.classes)
            if cls is None:
                return None
            attr_type = dict(self.classes[cls].attr_types).get(attr)
            if attr_type is None or attr_type.endswith("[]"):
                return None
            target = f"{attr_type}.{method}"
        elif "<elem>" in target:
            # "mod.Cls.<elem>name.method": a loop variable over the
            # container attribute "name" — the method belongs to the
            # container's *element* class (recorded as "Elem[]").
            prefix, _, rest = target.partition(".<elem>")
            attr, _, method = rest.partition(".")
            cls = self._resolve_name(prefix, self.classes)
            if cls is None:
                return None
            attr_type = dict(self.classes[cls].attr_types).get(attr)
            if attr_type is None or not attr_type.endswith("[]"):
                return None
            target = f"{attr_type[:-2]}.{method}"
        hit = self._resolve_name(target, self.functions)
        if hit is not None:
            return hit
        # Method-resolution fallback: walk base classes for inherited
        # methods ("mod.Sub.meth" defined on mod.Base).
        owner_cls, _, method = target.rpartition(".")
        if not owner_cls:
            return None
        cls_key = self._resolve_name(owner_cls, self.classes)
        seen: Set[str] = set()
        while cls_key is not None and cls_key not in seen:
            seen.add(cls_key)
            hit = self._resolve_name(f"{cls_key}.{method}", self.functions)
            if hit is not None:
                return hit
            bases = self.classes[cls_key].bases
            cls_key = (
                self._resolve_name(bases[0], self.classes) if bases else None
            )
        return None

    def callees(self, key: str) -> List[Tuple[CallSite, Optional[str]]]:
        return self._edges.get(key, [])

    # -- blocking propagation ------------------------------------------
    def blocking_chain(self, key: str) -> Optional[Tuple[str, ...]]:
        """Why ``key`` blocks, as a display chain ending at a primitive.

        ``None`` means "not known to block". Propagation follows
        resolved, unshielded calls through *synchronous* functions only:
        an async callee schedules rather than blocks, and executor-shim
        arguments run off the loop.
        """
        return self._chain(key, frozenset())

    def _chain(self, key: str, stack) -> Optional[Tuple[str, ...]]:
        if key in self._blocking_memo:
            return self._blocking_memo[key]
        if key in stack:
            return None
        fn = self.functions[key]
        result: Optional[Tuple[str, ...]] = None
        direct = [f for f in fn.blocking if not f.shielded]
        if direct:
            result = (fn.display, direct[0].what)
        else:
            for site, callee in self.callees(key):
                if callee is None or site.shielded:
                    continue
                target = self.functions[callee]
                if target.is_async:
                    continue
                sub = self._chain(callee, stack | {key})
                if sub is not None:
                    result = (fn.display,) + sub
                    break
        self._blocking_memo[key] = result
        return result


def build_program(
    contexts: Sequence[Tuple[ModuleContext, str]],
    cache: Optional[SummaryCache] = None,
) -> Program:
    """Summarize (or reload) every module and link the program."""
    stats = {"cache_hits": 0, "cache_misses": 0}
    summaries = []
    for ctx, sha in contexts:
        summary = cache.get(ctx.rel, sha, ctx.path) if cache is not None else None
        if summary is None:
            summary = summarize_module(ctx, sha)
            stats["cache_misses"] += 1
            if cache is not None:
                cache.put(summary)
        else:
            stats["cache_hits"] += 1
        summaries.append(summary)
    if cache is not None:
        cache.save()
    return Program(summaries, stats)
