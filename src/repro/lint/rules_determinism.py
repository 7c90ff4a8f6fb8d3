"""Determinism rules: DET001 (RNG), DET002 (wall clock), DET003 (ordering).

These guard the invariant the whole reproduction rests on: instability
must come from *modeled* perturbation sources (sensor, ISP, codec, OS),
never from hidden nondeterminism in our own code. Every RNG is derived
from unit identity (:mod:`repro.runner.seeds`), no result path reads the
wall clock or process entropy, and nothing that feeds serialization or
report ordering iterates in hash order.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from .context import ModuleContext
from .findings import Finding
from .registry import Rule, register

__all__ = ["NoGlobalRng", "NoWallClock", "NoUnorderedIteration"]


#: numpy.random module-level functions that touch the *global* RNG state.
_NP_GLOBAL_FNS = frozenset(
    {
        "seed", "rand", "randn", "randint", "random", "ranf", "random_sample",
        "sample", "choice", "shuffle", "permutation", "bytes", "normal",
        "uniform", "standard_normal", "standard_exponential", "standard_gamma",
        "poisson", "binomial", "beta", "exponential", "gamma", "geometric",
        "gumbel", "laplace", "logistic", "lognormal", "multinomial",
        "multivariate_normal", "negative_binomial", "pareto", "rayleigh",
        "triangular", "vonmises", "wald", "weibull", "zipf", "chisquare",
        "dirichlet", "hypergeometric", "logseries", "power", "integers",
        "get_state", "set_state",
    }
)

#: stdlib ``random`` module functions drawing from its hidden global state.
_STDLIB_RANDOM_FNS = frozenset(
    {
        "random", "randint", "randrange", "choice", "choices", "shuffle",
        "sample", "uniform", "gauss", "normalvariate", "seed", "getrandbits",
        "randbytes", "betavariate", "expovariate", "triangular",
        "vonmisesvariate", "paretovariate", "weibullvariate", "lognormvariate",
    }
)


@register
class NoGlobalRng(Rule):
    """DET001: randomness must be derived, never drawn from global state."""

    name = "DET001"
    summary = (
        "no global RNG (np.random.* module calls, bare random, os.urandom) "
        "outside runner/seeds.py"
    )

    #: The one module allowed to construct generators from raw entropy.
    exempt = ("runner/seeds.py",)

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel in self.exempt:
            return
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            canon = ctx.resolve(node.func)
            if canon is None:
                continue
            message = self._diagnose(canon, node)
            if message is not None:
                yield self.finding(ctx, node, message)

    @staticmethod
    def _diagnose(canon: str, node: ast.Call) -> Optional[str]:
        head, _, tail = canon.rpartition(".")
        if head == "numpy.random":
            if tail in _NP_GLOBAL_FNS:
                return (
                    f"call to numpy's global RNG state ({canon}); derive a "
                    "generator via repro.runner.seeds.derive_rng instead"
                )
            if tail in ("default_rng", "SeedSequence") and not (
                node.args or node.keywords
            ):
                return (
                    f"{canon}() without a seed draws OS entropy; pass "
                    "identity-derived entropy (repro.runner.seeds)"
                )
        if tail == "RandomState" or canon == "RandomState":
            return (
                "legacy numpy RandomState; use identity-derived "
                "numpy.random.Generator streams (repro.runner.seeds)"
            )
        if head == "random" and tail in _STDLIB_RANDOM_FNS:
            return (
                f"stdlib global RNG ({canon}); thread a seeded "
                "numpy.random.Generator through instead"
            )
        if canon == "random.Random" and not (node.args or node.keywords):
            return "unseeded random.Random() draws OS entropy"
        if canon == "os.urandom" or head == "secrets":
            return f"{canon} is OS entropy; results would differ across runs"
        return None


#: Wall-clock / entropy call chains banned in result paths (DET002).
_WALL_CLOCK = frozenset(
    {
        "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
        "time.perf_counter", "time.perf_counter_ns", "time.process_time",
        "time.process_time_ns", "time.clock_gettime", "time.clock_gettime_ns",
        "datetime.datetime.now", "datetime.datetime.utcnow",
        "datetime.datetime.today", "datetime.date.today",
        "uuid.uuid1", "uuid.uuid4", "uuid.getnode",
    }
)


@register
class NoWallClock(Rule):
    """DET002: no wall clock, uuid, or str hash() in result paths."""

    name = "DET002"
    summary = (
        "no wall-clock/entropy (time.*, uuid, builtin hash()) in result "
        "paths outside obs/, serve/, loadgen/, lint/"
    )

    #: Observability is side-band by contract — timing belongs there.
    #: serve/ and loadgen/ measure latency and pace request arrivals —
    #: wall-clock there steers *scheduling* and *reported timings* only;
    #: every capture payload still flows through the pure execute_unit
    #: path, which is what the drained-service == serial-runner test pins
    #: down. lint/ times its own analysis for ``--stats``; it never
    #: touches results.
    exempt_prefixes = ("obs/", "serve/", "loadgen/", "lint/")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        if ctx.rel.startswith(self.exempt_prefixes):
            return
        for node in ctx.walk():
            if not isinstance(node, ast.Call):
                continue
            if isinstance(node.func, ast.Name) and node.func.id == "hash":
                yield self.finding(
                    ctx,
                    node,
                    "builtin hash() is PYTHONHASHSEED-dependent; use a "
                    "content hash (zlib.crc32, hashlib) for anything that "
                    "reaches results or cache keys",
                )
                continue
            canon = ctx.resolve(node.func)
            if canon in _WALL_CLOCK:
                yield self.finding(
                    ctx,
                    node,
                    f"{canon}() reads the wall clock/host entropy; results "
                    "must depend only on seeds and inputs (obs/ owns timing)",
                )


#: Builtins whose iteration order is reproduced in their output.
_ORDER_SENSITIVE_CALLS = frozenset({"list", "tuple", "enumerate", "reversed"})

#: Binary set-algebra operators (``a | b`` on sets yields a set).
_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)


@register
class NoUnorderedIteration(Rule):
    """DET003: hash-ordered iteration must not feed ordered output."""

    name = "DET003"
    summary = (
        "no iteration over sets/dict.keys() feeding serialization, "
        "cache-key, or report ordering without sorted()"
    )

    #: Modules producing canonical output (serialized results, report
    #: text): there, *any* dict-view iteration must go through sorted().
    strict = ("core/serialize.py", "core/report.py", "obs/report.py")

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        strict = ctx.rel in self.strict
        for node in ctx.walk():
            sites = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                sites.append(node.iter)
            elif isinstance(
                node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
            ):
                sites.extend(gen.iter for gen in node.generators)
            elif isinstance(node, ast.Call) and node.args:
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDER_SENSITIVE_CALLS
                ) or (isinstance(func, ast.Attribute) and func.attr == "join"):
                    sites.append(node.args[0])
            for site in sites:
                reason = self._unordered(site, strict)
                if reason is not None:
                    yield self.finding(
                        ctx,
                        site,
                        f"iterates over {reason} in hash/insertion order; "
                        "wrap the iterable in sorted(...) so output ordering "
                        "is independent of PYTHONHASHSEED and build order",
                    )

    def _unordered(self, node: ast.AST, strict: bool) -> Optional[str]:
        """Why ``node`` iterates in unordered/hash order, or ``None``."""
        if isinstance(node, (ast.Set, ast.SetComp)):
            return "a set"
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("set", "frozenset"):
                return f"{func.id}(...)"
            if isinstance(func, ast.Attribute):
                if func.attr == "keys":
                    return ".keys()"
                if strict and func.attr in ("items", "values"):
                    return f".{func.attr}()"
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            left = self._unordered(node.left, strict)
            right = self._unordered(node.right, strict)
            if left is not None or right is not None:
                return "set algebra"
        return None
