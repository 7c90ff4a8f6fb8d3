"""Unit tests for the whole-program call graph (repro.lint.callgraph).

Covers the linking machinery the program rules stand on: cross-module
edge resolution through aliased imports, method resolution (attribute
types from constructor calls and annotated parameters, plus base-class
walks), cycle-safe blocking propagation, and the hash-keyed summary
cache.
"""

import textwrap

from repro.lint import ModuleContext, SummaryCache, build_program
from repro.lint.callgraph import module_name, source_sha


def make_program(sources, cache=None):
    """Link a Program from a {rel: source} mapping."""
    contexts = []
    for rel, src in sorted(sources.items()):
        text = textwrap.dedent(src)
        contexts.append((ModuleContext.parse(rel, rel, text), source_sha(text)))
    return build_program(contexts, cache)


def test_module_name_mirrors_the_package_layout():
    assert module_name("runner/seeds.py") == "repro.runner.seeds"
    assert module_name("serve/__init__.py") == "repro.serve"


def test_cross_module_edge_through_aliased_import():
    program = make_program({
        "lab/util.py": """
            def helper():
                return 1
        """,
        "fleet/pop.py": """
            from ..lab import util as u
            def make():
                return u.helper()
        """,
    })
    edges = program.callees("repro.fleet.pop.make")
    assert [t for _s, t in edges] == ["repro.lab.util.helper"]


def test_cycle_terminates_and_blocking_still_propagates():
    program = make_program({
        "runner/a.py": """
            import time
            def ping(n):
                return pong(n - 1) if n else 0
            def pong(n):
                time.sleep(0.1)
                return ping(n)
        """,
    })
    chain = program.blocking_chain("repro.runner.a.ping")
    assert chain == (
        "runner/a.py:ping", "runner/a.py:pong", "time.sleep",
    )
    # A blocking-free cycle settles to "does not block" rather than
    # recursing forever.
    quiet = make_program({
        "runner/b.py": """
            def even(n):
                return odd(n - 1) if n else True
            def odd(n):
                return even(n - 1) if n else False
        """,
    })
    assert quiet.blocking_chain("repro.runner.b.even") is None


def test_method_resolution_via_constructor_binding():
    program = make_program({
        "runner/exec.py": """
            class Worker:
                def work(self):
                    return 1

            class Pool:
                def __init__(self):
                    self.worker = Worker()
                def run(self):
                    return self.worker.work()
        """,
    })
    edges = program.callees("repro.runner.exec.Pool.run")
    assert [t for _s, t in edges] == ["repro.runner.exec.Worker.work"]


def test_method_resolution_via_annotated_parameter():
    program = make_program({
        "runner/cache.py": """
            class Store:
                def get(self, key):
                    return key
        """,
        "serve/svc.py": """
            from ..runner.cache import Store
            class Service:
                def __init__(self, store: Store):
                    self.store = store
                def lookup(self, key):
                    return self.store.get(key)
        """,
    })
    edges = program.callees("repro.serve.svc.Service.lookup")
    assert [t for _s, t in edges] == ["repro.runner.cache.Store.get"]


def test_inherited_method_resolves_through_base_class():
    program = make_program({
        "nn/base.py": """
            class Base:
                def forward(self, x):
                    return x
        """,
        "nn/deep.py": """
            from .base import Base
            class Deep(Base):
                def run(self, x):
                    return self.forward(x)
        """,
    })
    edges = program.callees("repro.nn.deep.Deep.run")
    assert [t for _s, t in edges] == ["repro.nn.base.Base.forward"]


def test_summary_cache_round_trips_and_invalidates_on_edit(tmp_path):
    sources = {
        "lab/util.py": "def helper():\n    return 1\n",
        "fleet/pop.py": (
            "from ..lab import util as u\n"
            "def make():\n    return u.helper()\n"
        ),
    }
    cold = make_program(sources, SummaryCache(tmp_path))
    assert cold.stats["cache_misses"] == 2
    assert cold.stats["cache_hits"] == 0

    warm = make_program(sources, SummaryCache(tmp_path))
    assert warm.stats["cache_hits"] == 2
    assert warm.stats["cache_misses"] == 0
    # Reloaded summaries link to the same graph.
    assert warm.stats["edges"] == cold.stats["edges"]
    assert [t for _s, t in warm.callees("repro.fleet.pop.make")] == [
        "repro.lab.util.helper"
    ]

    # Editing one module invalidates only that module's entry.
    sources["lab/util.py"] = "def helper():\n    return 2\n"
    touched = make_program(sources, SummaryCache(tmp_path))
    assert touched.stats["cache_hits"] == 1
    assert touched.stats["cache_misses"] == 1


def test_sibling_modules_with_same_function_name_link_exactly():
    """Exact qualified-name resolution: two sibling modules both define
    ``helper``; each caller's edge lands on its *own* import, and a call
    through an unbound name links nowhere (the old suffix-index matcher
    would have guessed)."""
    program = make_program({
        "runner/util.py": """
            def helper():
                return 1
        """,
        "fleet/util.py": """
            def helper():
                return 2
        """,
        "runner/job.py": """
            from .util import helper
            def run():
                return helper()
        """,
        "fleet/pop.py": """
            from ..fleet import util
            def grow():
                return util.helper()
        """,
        "serve/svc.py": """
            import importlib
            def handle():
                util = importlib.import_module("x")
                return util.helper()
        """,
    })
    assert [t for _s, t in program.callees("repro.runner.job.run")] == [
        "repro.runner.util.helper"
    ]
    assert [t for _s, t in program.callees("repro.fleet.pop.grow")] == [
        "repro.fleet.util.helper"
    ]
    assert [t for _s, t in program.callees("repro.serve.svc.handle")] == [None, None]


def test_resolution_chases_package_reexports():
    """``from ..runner import Store`` where runner/__init__ re-exports
    Store from runner/cache.py resolves to the defining module."""
    program = make_program({
        "runner/cache.py": """
            class Store:
                def get(self, key):
                    return key
        """,
        "runner/__init__.py": """
            from .cache import Store
        """,
        "serve/svc.py": """
            from ..runner import Store
            class Service:
                def __init__(self, store: Store):
                    self.store = store
                def lookup(self, key):
                    return self.store.get(key)
        """,
    })
    edges = program.callees("repro.serve.svc.Service.lookup")
    assert [t for _s, t in edges] == ["repro.runner.cache.Store.get"]
