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
    # ------------------------------------------------------------ ASY001
    Case("ASY001", "direct-sleep", "serve/slowpath.py", """
        import time
        async def handle():
            time.sleep(0.5)
    """, True),
    Case("ASY001", "transitive-blocking", "serve/chained.py", """
        import numpy as np
        def load_weights(path):
            return np.load(path)
        async def handle(path):
            return load_weights(path)
    """, True),
    Case("ASY001", "sync-open", "loadgen/reader.py", """
        async def handle(path):
            with open(path) as fh:
                return fh.read()
    """, True),
    Case("ASY001", "future-result", "serve/waiters.py", """
        async def handle(fut):
            return fut.result()
    """, True),
    Case("ASY001", "executor-shim-ok", "serve/shimmed.py", """
        import time
        async def handle(loop):
            await loop.run_in_executor(None, lambda: time.sleep(0.5))
    """, False),
    Case("ASY001", "async-sleep-ok", "serve/paced.py", """
        import asyncio
        async def handle():
            await asyncio.sleep(0.5)
    """, False),
    Case("ASY001", "sync-context-ok", "runner/batch.py", """
        import time
        def pace():
            time.sleep(0.5)
    """, False),
    # ------------------------------------------------------------ ASY002
    Case("ASY002", "lock-across-await", "serve/guarded.py", """
        async def handle(lock, queue):
            async with lock:
                item = await queue.get()
            return item
    """, True),
    Case("ASY002", "threading-lock-constructor", "serve/shared.py", """
        import threading
        async def handle(queue):
            with threading.Lock():
                return await queue.get()
    """, True),
    Case("ASY002", "await-outside-lock-ok", "serve/guarded.py", """
        async def handle(lock, queue):
            item = await queue.get()
            async with lock:
                count = item + 1
            return count
    """, False),
    Case("ASY002", "non-lock-context-ok", "serve/session.py", """
        async def handle(session, queue):
            async with session:
                return await queue.get()
    """, False),
    # ------------------------------------------------------------ ASY003
    Case("ASY003", "bare-create-task", "serve/spawner.py", """
        import asyncio
        async def tick():
            pass
        async def handle():
            asyncio.create_task(tick())
    """, True),
    Case("ASY003", "bare-ensure-future", "loadgen/fired.py", """
        import asyncio
        async def tick():
            pass
        async def handle():
            asyncio.ensure_future(tick())
    """, True),
    Case("ASY003", "referenced-task-ok", "serve/tracked.py", """
        import asyncio
        async def tick():
            pass
        async def handle():
            task = asyncio.create_task(tick())
            await task
    """, False),
    # ------------------------------------------------------------ PUR002
    Case("PUR002", "measurement-value-used", "codecs/counted.py", """
        from repro import obs
        def encode(data):
            n = obs.count("codec.calls")
            return data + [n]
    """, True),
    Case("PUR002", "obs-in-return", "isp/hooked.py", """
        from repro import obs
        def demosaic(raw):
            return obs.active()
    """, True),
    Case("PUR002", "write-only-ok", "codecs/counted.py", """
        from repro import obs
        def encode(data):
            with obs.span("codec.encode"):
                out = list(data)
            obs.count("codec.calls")
            return out
    """, False),
    Case("PUR002", "handle-assignment-ok", "kernels/hooked.py", """
        from repro import obs
        def run(block):
            ob = obs.active()
            if ob is not None:
                ob.metrics.count("kernel.calls")
            return block
    """, False),
    Case("PUR002", "outside-pure-modules-ok", "runner/hooked.py", """
        from repro import obs
        def f():
            x = obs.count("n")
            return x
    """, False),
]


def case_params():
    """``pytest.param``-friendly (case, id) pairs."""
    return [(case, f"{case.rule}-{case.id}") for case in CASES]
