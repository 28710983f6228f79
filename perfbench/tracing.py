"""In-memory span tracing around the program's layer entry points.

:func:`install` replaces each layer's public function with a wrapper
that, while a :class:`Tracer` is active, records one span per call and
the layer's work counts.  The wrappers are installed from this file
only: the program under test is not edited.  Each name is patched
where the program looks it up at call time (``repro.core.study``
imports ``compile_benchmark`` by name, so that binding is the one
wrapped), and ``compress`` is wrapped on the scheme classes, never on
an instance, because an instance attribute would be pickled with every
``CompressedImage`` the store writes.

A layer's self time is the summed duration of its spans minus the part
covered by their child spans; ``core`` is whatever the traced wall
time leaves after every layer's self time.
"""

from __future__ import annotations

import functools
import json
import os
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names, in report order.
LAYERS = (
    "compiler",
    "emulator",
    "compression",
    "fetch.simulate",
    "fetch.sweep",
    "analysis.freq",
    "analysis.cachebound",
    "runtime.stage",
    "store.get",
    "store.put",
)

#: Work counts recorded next to the spans: name -> unit.
COUNTS = {
    "compiler.static_ops": "ops",
    "emulator.dynamic_ops": "ops",
    "compression.ops_encoded": "ops",
    "fetch.configs": "count",
    "fetch.trace_blocks": "blocks",
    "store.get.bytes": "B",
    "store.put.bytes": "B",
}


def per_layer_units() -> Dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units: Dict[str, str] = {}
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(COUNTS)
    units["store.get.hit_ratio"] = "ratio"
    units["store.entries"] = "count"
    units["core.self_s"] = "s"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Spans and counts of the traced passes, kept in memory.

    ``active`` is false outside the timed region, so oracle checks and
    set-up that call the same functions leave no spans.
    """

    def __init__(self) -> None:
        self.origin = perf_counter()
        self.active = False
        self.request: Optional[str] = None
        self.pass_index = -1
        #: (span id, layer, start, end, parent id, request, pass)
        self.spans: List[Tuple] = []
        self._stack: List[list] = []  # [span id, layer, start, child_s]
        self._next_id = 0
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def begin_pass(self, index: int) -> None:
        self.pass_index = index
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.active = True

    def end_pass(self) -> None:
        self.active = False
        self.request = None

    def enter(self, layer: str) -> list:
        self._next_id += 1
        frame = [self._next_id, layer, perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list) -> None:
        end = perf_counter()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[1]!r} closed out of order")
        span_id, layer, start, child_s = frame
        duration = end - start
        self.self_s[layer] += duration - child_s
        self.calls[layer] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        self.spans.append(
            (
                span_id, layer, start, end,
                parent[0] if parent is not None else None,
                self.request, self.pass_index,
            )
        )

    def layer_metrics(self, wall_s: float) -> Dict[str, float]:
        """Per-layer numbers of the current pass, by metric name."""
        out: Dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        for name in COUNTS:
            out[name] = self.counts[name]
        gets = self.calls["store.get"]
        out["store.get.hit_ratio"] = (
            self.counts["store.get.hits"] / gets if gets else 0.0
        )
        out["core.self_s"] = wall_s - sum(self.self_s.values())
        return out

    def dump_chrome(self, path: os.PathLike) -> None:
        """Write every span as Chrome trace-event JSON (``ph: X``)."""
        pid = os.getpid()
        events = [
            {
                "name": layer,
                "cat": layer.split(".")[0],
                "ph": "X",
                "ts": (start - self.origin) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": pid,
                "tid": pass_index,
                "args": {
                    "span": span_id,
                    "parent": parent,
                    "request": request,
                    "pass": pass_index,
                },
            }
            for span_id, layer, start, end, parent, request, pass_index
            in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"traceEvents": events, "displayTimeUnit": "ms"}, fh
            )


def _wrap(
    tracer: Tracer,
    layer: str,
    fn: Callable,
    count: Optional[Callable] = None,
) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if count is not None:
            count(tracer.counts, args, result)
        return result

    return traced


def _scheme_classes() -> List[type]:
    """Every compression scheme class that defines its own ``compress``."""
    import repro.compression.adaptive  # noqa: F401 - registers subclasses
    import repro.compression.dictionary  # noqa: F401
    import repro.tailored.encoding  # noqa: F401
    from repro.compression.schemes import CompressionScheme

    found, todo = [], [CompressionScheme]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        if cls is not CompressionScheme and "compress" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda c: c.__qualname__)


def install(tracer: Tracer) -> None:
    """Wrap every layer entry point; fails if one has gone missing."""
    from repro import runtime
    from repro.analysis import cachebound, freq
    from repro.core import study, sweep
    from repro.runtime.store import MISS, ArtifactStore

    def static_ops(counts, args, result):
        counts["compiler.static_ops"] += result.image.total_ops

    def dynamic_ops(counts, args, result):
        counts["emulator.dynamic_ops"] += result.dynamic_ops

    def ops_encoded(counts, args, result):
        counts["compression.ops_encoded"] += args[1].total_ops

    def sweep_size(counts, args, result):
        counts["fetch.configs"] += len(args[2])
        counts["fetch.trace_blocks"] += len(args[1])

    def got(counts, args, result):
        if result is not MISS:
            counts["store.get.hits"] += 1
            counts["store.get.bytes"] += args[0].size_of(args[1])

    def put(counts, args, result):
        counts["store.put.bytes"] += result

    targets = [
        (study, "compile_benchmark", "compiler", static_ops),
        (study, "emulate", "emulator", dynamic_ops),
        (study, "simulate_fetch", "fetch.simulate", None),
        (study, "ideal_metrics", "fetch.simulate", None),
        (sweep, "simulate_fetch_sweep_multi", "fetch.sweep", sweep_size),
        (freq, "static_heat_profile", "analysis.freq", None),
        (cachebound, "cycle_bounds", "analysis.cachebound", None),
        (cachebound, "classify_fetch", "analysis.cachebound", None),
        (runtime, "get_or_compute", "runtime.stage", None),
        (ArtifactStore, "get", "store.get", got),
        (ArtifactStore, "put", "store.put", put),
    ]
    targets += [
        (cls, "compress", "compression", ops_encoded)
        for cls in _scheme_classes()
    ]
    for owner, name, layer, count in targets:
        original = vars(owner).get(name)
        if original is None:
            raise RuntimeError(
                f"layer entry point {owner.__name__}.{name} not found"
            )
        setattr(owner, name, _wrap(tracer, layer, original, count))
