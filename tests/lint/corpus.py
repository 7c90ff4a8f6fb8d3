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
    # ------------------------------------------------------------ DET001
    Case("DET001", "np-global-rand", "scenes/gen.py", """
        import numpy as np
        x = np.random.rand(4)
    """, True),
    Case("DET001", "np-global-shuffle", "mitigation/mix.py", """
        import numpy as np
        np.random.shuffle([1, 2, 3])
    """, True),
    Case("DET001", "unseeded-default-rng", "lab/warmup.py", """
        import numpy as np
        rng = np.random.default_rng()
    """, True),
    Case("DET001", "stdlib-random", "lab/pick.py", """
        import random
        v = random.random()
    """, True),
    Case("DET001", "os-urandom", "runner/token.py", """
        import os
        b = os.urandom(8)
    """, True),
    Case("DET001", "legacy-randomstate", "nn/legacy.py", """
        import numpy as np
        rs = np.random.RandomState(0)
    """, True),
    Case("DET001", "seeded-default-rng-ok", "scenes/gen.py", """
        import numpy as np
        rng = np.random.default_rng(7)
    """, False),
    Case("DET001", "seeds-module-exempt", "runner/seeds.py", """
        import numpy as np
        def fresh():
            return np.random.default_rng()
    """, False),
    Case("DET001", "generator-method-ok", "sensor/noise.py", """
        def sample(rng):
            return rng.random(3)
    """, False),
    # ------------------------------------------------------------ DET002
    Case("DET002", "time-time", "lab/clockish.py", """
        import time
        t = time.time()
    """, True),
    Case("DET002", "datetime-now", "mitigation/stamp.py", """
        from datetime import datetime
        now = datetime.now()
    """, True),
    Case("DET002", "uuid4", "runner/ids.py", """
        import uuid
        u = uuid.uuid4()
    """, True),
    Case("DET002", "builtin-hash", "runner/keys.py", """
        key = hash("cache-key")
    """, True),
    Case("DET002", "obs-exempt", "obs/trace.py", """
        import time
        t0 = time.perf_counter()
    """, False),
    Case("DET002", "sleep-ok", "lab/pace.py", """
        import time
        time.sleep(0.01)
    """, False),
    Case("DET002", "crc32-ok", "runner/keys.py", """
        from zlib import crc32
        key = crc32(b"cache-key")
    """, False),
    # ------------------------------------------------------------ DET003
    Case("DET003", "for-over-set", "core/order.py", """
        for x in {"b", "a"}:
            print(x)
    """, True),
    Case("DET003", "list-of-set", "lab/names.py", """
        def uniq(names):
            return list(set(names))
    """, True),
    Case("DET003", "join-keys", "runner/keyfmt.py", """
        def render(d):
            return ",".join(d.keys())
    """, True),
    Case("DET003", "comprehension-keys", "devices/walk.py", """
        def labels(d):
            return [k.upper() for k in d.keys()]
    """, True),
    Case("DET003", "set-algebra", "core/merge.py", """
        def both(a, b):
            for item in set(a) | set(b):
                yield item
    """, True),
    Case("DET003", "strict-items", "core/serialize.py", """
        def dump(d):
            return {k: v for k, v in d.items()}
    """, True),
    Case("DET003", "strict-values", "obs/report.py", """
        def totals(d):
            return [v for v in d.values()]
    """, True),
    Case("DET003", "sorted-set-ok", "core/order.py", """
        for x in sorted({"b", "a"}):
            print(x)
    """, False),
    Case("DET003", "sum-of-set-ok", "core/stats.py", """
        def total(xs):
            return sum(set(xs))
    """, False),
    Case("DET003", "nonstrict-items-ok", "lab/iterate.py", """
        def walk(d):
            for k, v in d.items():
                print(k, v)
    """, False),
    Case("DET003", "strict-sorted-items-ok", "core/serialize.py", """
        def dump(d):
            return {k: v for k, v in sorted(d.items())}
    """, False),
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
    # ----------------------------------------------------------- PROC001
    Case("PROC001", "empty-module-dict", "nn/memo.py", """
        _CACHE = {}
    """, True),
    Case("PROC001", "empty-module-list", "lab/queue.py", """
        pending = []
    """, True),
    Case("PROC001", "defaultdict", "devices/tally.py", """
        from collections import defaultdict
        counts = defaultdict(list)
    """, True),
    Case("PROC001", "global-rebind", "lab/counter.py", """
        _calls = 0
        def bump():
            global _calls
            _calls = _calls + 1
    """, True),
    Case("PROC001", "constant-table-ok", "devices/tables.py", """
        FAMILIES = {"adreno": 1, "mali": 2}
    """, False),
    Case("PROC001", "function-local-ok", "nn/memo.py", """
        def collect():
            out = {}
            out["k"] = 1
            return out
    """, False),
    Case("PROC001", "obs-exempt", "obs/state.py", """
        _ACTIVE = None
        def activate(ob):
            global _ACTIVE
            _ACTIVE = ob
    """, False),
    # ----------------------------------------------------------- SEED001
    Case("SEED001", "literal-seed", "fleet/pop.py", """
        import numpy as np
        def make():
            rng = np.random.default_rng(0)
            return rng.random(3)
    """, True),
    Case("SEED001", "wallclock-seed", "scenes/shuffle.py", """
        import time
        import numpy as np
        def make():
            rng = np.random.default_rng(int(time.time()))
            return rng.random(3)
    """, True),
    Case("SEED001", "untracked-seed", "mitigation/remix.py", """
        import numpy as np
        def make():
            rng = np.random.default_rng(mystery_seed())
            return rng.random(3)
    """, True),
    Case("SEED001", "second-source", "sensor/blend.py", """
        import numpy as np
        def blend(rng, seed):
            extra = np.random.default_rng(seed)
            return rng.random(3) + extra.random(3)
    """, True),
    Case("SEED001", "bare-derive", "fleet/ids.py", """
        from ..runner.seeds import derive_rng
        def make(master):
            return derive_rng(master)
    """, True),
    Case("SEED001", "literal-through-local", "lab/setup.py", """
        import numpy as np
        def make():
            seed = 1234
            rng = np.random.default_rng(seed)
            return rng.random(3)
    """, True),
    Case("SEED001", "param-seed-ok", "scenes/gen.py", """
        import numpy as np
        def make(seed):
            rng = np.random.default_rng(seed)
            return rng.random(3)
    """, False),
    Case("SEED001", "attr-seed-ok", "sensor/noise.py", """
        import numpy as np
        def make(config):
            rng = np.random.default_rng(config.seed)
            return rng.random(3)
    """, False),
    Case("SEED001", "derived-ok", "fleet/pop.py", """
        from ..runner.seeds import derive_rng
        def make(master, unit_id):
            rng = derive_rng(master, unit_id)
            return rng.random(3)
    """, False),
    Case("SEED001", "closure-param-ok", "scenes/build.py", """
        import numpy as np
        def build(seed):
            def prep():
                return np.random.default_rng(seed)
            return prep
    """, False),
    Case("SEED001", "seeds-module-exempt", "runner/seeds.py", """
        import numpy as np
        def bootstrap():
            return np.random.default_rng(0xC0FFEE)
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
