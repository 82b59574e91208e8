"""Span tracer that wraps library functions from outside the package.

Wrapping rebinds a function's name in every loaded `friedrichs` module
that holds it, because the modules import each other's functions by name
(`amplitude` holds its own `spectral_density`, `protocols` its own
`log_survival`).  No source file is edited; a fresh import of the package
comes back unwrapped.

Each call of a wrapped function is a span: name, start, end, parent span
and the benchmark item it belongs to.  Self time is the span's duration
minus the time its wrapped children cover.  The hottest boundaries are
not kept span by span but summed per (nearest kept ancestor, name), which
bounds memory on runs with hundreds of thousands of density evaluations.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable, Optional

_clock = time.perf_counter


@dataclass
class Layer:
    """One traced boundary: `function` of module `friedrichs.<module>`,
    reported under `name`.  Several functions may share a name."""

    name: str
    module: str
    function: str
    points: Optional[Callable] = None   # (*args, **kwargs) -> evaluated points
    hot: bool = False       # summed per parent instead of kept span by span
    engine: bool = False    # exceptions leaving it count as engine errors


class Tracer:
    def __init__(self):
        self.active = True
        self.item = None
        self.spans = []    # (id, name, start, end, parent id, item, self_s)
        self.hot = defaultdict(lambda: [0, 0, 0.0])   # (parent, name) -> calls, points, self_s
        self.totals = defaultdict(lambda: [0, 0, 0.0])  # name -> calls, points, self_s
        self.engine_errors = 0
        self._stack = []   # per open span: [child seconds, id of nearest kept span]
        self._engine_depth = 0
        self._next_id = 0

    def install(self, layers):
        """Wrap every layer in the currently imported package."""
        modules = [m for key, m in sys.modules.items()
                   if key == "friedrichs" or key.startswith("friedrichs.")]
        for layer in layers:
            original = getattr(sys.modules["friedrichs." + layer.module],
                               layer.function)
            wrapper = self._wrap(original, layer)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, fn, layer):
        tracer = self
        name, points, hot, engine = layer.name, layer.points, layer.hot, layer.engine

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            parent = stack[-1][1] if stack else None
            if hot:
                span_id = parent
            else:
                span_id = tracer._next_id
                tracer._next_id += 1
            frame = [0.0, span_id]
            stack.append(frame)
            tracer._engine_depth += engine
            start = _clock()
            try:
                return fn(*args, **kwargs)
            except Exception:
                if engine and tracer._engine_depth == 1:
                    tracer.engine_errors += 1
                raise
            finally:
                end = _clock()
                tracer._engine_depth -= engine
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][0] += duration
                self_s = duration - frame[0]
                n = points(*args, **kwargs) if points else 0
                total = tracer.totals[name]
                total[0] += 1
                total[1] += n
                total[2] += self_s
                if hot:
                    agg = tracer.hot[(parent, name)]
                    agg[0] += 1
                    agg[1] += n
                    agg[2] += self_s
                else:
                    tracer.spans.append((span_id, name, start, end, parent,
                                         tracer.item, self_s))

        return wrapper

    def layer_table(self):
        """{name: {"calls", "points", "self_s"}} over everything traced."""
        return {name: {"calls": c, "points": p, "self_s": s}
                for name, (c, p, s) in sorted(self.totals.items())}

    def dump(self):
        """Spans and per-parent aggregates as JSON-ready lists."""
        return {
            "spans": [dict(zip(("id", "name", "start", "end", "parent", "item",
                                "self_s"), span)) for span in self.spans],
            "hot": [{"parent": parent, "name": name, "calls": c, "points": p,
                     "self_s": s}
                    for (parent, name), (c, p, s) in self.hot.items()],
        }
