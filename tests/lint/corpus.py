"""Fixture corpus: minimal good/bad snippets per lint rule.

Each :class:`Case` is one module the engine lints in isolation (only
the case's rule enabled), written to ``<tmp>/<rel>`` so path-scoped
rules see the right location. Every rule has at least one must-flag and
one must-pass case; ``tests/lint/test_rules.py`` asserts both
directions.
"""

from dataclasses import dataclass
from textwrap import dedent


@dataclass(frozen=True)
class Case:
    rule: str
    id: str
    rel: str  #: path relative to the fake package root
    code: str
    flags: bool  #: True = the rule must fire, False = it must stay quiet

    def source(self) -> str:
        return dedent(self.code).lstrip("\n")


CASES = [
    # ------------------------------------------------------------ MUT001
    Case("MUT001", "augassign-param", "imaging/ops.py", """
        def scale(x):
            x *= 2
            return x
    """, True),
    Case("MUT001", "subscript-write", "codecs/block.py", """
        def zero_dc(block):
            block[0] = 0
            return block
    """, True),
    Case("MUT001", "out-kwarg", "isp/stages.py", """
        import numpy as np
        def clamp(a):
            np.clip(a, 0.0, 1.0, out=a)
            return a
    """, True),
    Case("MUT001", "mutating-method", "imaging/stack.py", """
        def push(frames, frame):
            frames.append(frame)
    """, True),
    Case("MUT001", "rebind-ok", "imaging/ops.py", """
        def scale(x):
            x = x * 2
            return x
    """, False),
    Case("MUT001", "copy-then-write-ok", "codecs/block.py", """
        def zero_dc(block):
            out = block.copy()
            out[0] = 0
            return out
    """, False),
    Case("MUT001", "out-of-scope-module-ok", "nn/train.py", """
        def scale(x):
            x *= 2
            return x
    """, False),
    Case("MUT001", "self-attribute-ok", "codecs/bitio.py", """
        class Writer:
            def push(self, n):
                self.total += n
    """, False),
    # ------------------------------------------------------------ OBS001
    Case("OBS001", "count-result-used", "runner/hooked.py", """
        from repro import obs
        def f():
            x = obs.count("n")
            return 1
    """, True),
    Case("OBS001", "span-not-with", "runner/hooked.py", """
        from repro import obs
        def f():
            s = obs.span("region")
            return 1
    """, True),
    Case("OBS001", "obs-in-return", "devices/hooked.py", """
        from repro import obs
        def f():
            return obs.active()
    """, True),
    Case("OBS001", "relative-import-flags", "runner/hooked.py", """
        from .. import obs
        def f():
            return obs.is_enabled()
    """, True),
    Case("OBS001", "canonical-pattern-ok", "runner/hooked.py", """
        from repro import obs
        def f(work):
            with obs.span("region", n=len(work)):
                out = [w * 2 for w in work]
            obs.count("fleet.units_executed")
            obs.gauge("fleet.width", 4)
            obs.observe("unit.bytes", 123.0)
            return out
    """, False),
    Case("OBS001", "active-assignment-ok", "runner/hooked.py", """
        from repro import obs
        def f():
            observer = obs.active()
            if observer is None:
                return 0
            return 1
    """, False),
    Case("OBS001", "no-obs-import-ok", "runner/plain.py", """
        def f(obs):
            return obs.span("not the real module")
    """, False),
]


def case_params():
    """``pytest.param``-friendly (case, id) pairs."""
    return [(case, f"{case.rule}-{case.id}") for case in CASES]
