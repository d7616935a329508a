"""In-memory span recorder and the wrappers that feed it.

The benchmark measures each layer from outside: :func:`install` swaps
the public functions of a layer for thin wrappers that open a span
around every call.  Spans carry a name, a layer, start and end
(``time.monotonic_ns``, shared by every process on the host, so spans
from a CLI child line up with the parent's), a parent span id and the
id of the benchmark request they belong to.

Aggregation happens as spans close, so per-layer totals never need the
span list; the list itself is kept (up to :data:`MAX_STORED_SPANS`) only
to be written out as a Chrome trace-event file at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import os
import time
from typing import Callable, Dict, List, Optional

#: Spans kept for the trace file; aggregation covers every span.
MAX_STORED_SPANS = 400_000


class Tracer:
    """Span stack plus per-(layer, name) aggregates for one process."""

    def __init__(self) -> None:
        self.enabled = False
        self.request_id = 0
        self.spans: List[tuple] = []
        self.dropped = 0
        # (layer, name) -> [calls, ns]; a span nested in one of the same
        # (layer, name) adds its call but not its time
        self.totals: Dict[tuple, list] = {}
        self.self_ns: Dict[str, int] = {}     # layer -> self time
        self.counters: Dict[str, int] = {}
        self._stack: List[list] = []          # [id, layer, name, t0, child_ns]
        self._open: Dict[tuple, int] = {}     # (layer, name) -> open spans
        self._next_id = 1

    # -- recording -----------------------------------------------------
    def begin(self, layer: str, name: str) -> Optional[list]:
        if not self.enabled:
            return None
        frame = [self._next_id, layer, name, time.monotonic_ns(), 0]
        self._next_id += 1
        key = (layer, name)
        self._open[key] = self._open.get(key, 0) + 1
        self._stack.append(frame)
        return frame

    def end(self, frame: Optional[list]) -> None:
        if frame is None:
            return
        t1 = time.monotonic_ns()
        # a wrapped call that raised may leave deeper frames behind
        while self._stack and self._stack[-1] is not frame:
            self._stack.pop()
        if self._stack:
            self._stack.pop()
        span_id, layer, name, t0, child_ns = frame
        duration = t1 - t0
        self._open[(layer, name)] -= 1
        parent_id = self._stack[-1][0] if self._stack else 0
        if self._stack:
            self._stack[-1][4] += duration
        self.record(span_id, layer, name, t0, t1, parent_id, child_ns,
                    outermost=not self._open[(layer, name)])

    def record(self, span_id, layer, name, t0, t1, parent_id,
               child_ns, outermost) -> None:
        duration = t1 - t0
        entry = self.totals.setdefault((layer, name), [0, 0])
        entry[0] += 1
        if outermost:
            entry[1] += duration
        self.self_ns[layer] = self.self_ns.get(layer, 0) + duration - child_ns
        if len(self.spans) < MAX_STORED_SPANS:
            self.spans.append((span_id, layer, name, t0, t1, parent_id,
                               self.request_id))
        else:
            self.dropped += 1

    @contextlib.contextmanager
    def span(self, layer: str, name: str):
        frame = self.begin(layer, name)
        try:
            yield
        finally:
            self.end(frame)

    @contextlib.contextmanager
    def paused(self):
        """Calls made inside are not recorded (benchmark bookkeeping)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def count(self, name: str, amount: int = 1) -> None:
        if self.enabled:
            self.counters[name] = self.counters.get(name, 0) + amount

    def new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    def current_id(self) -> int:
        return self._stack[-1][0] if self._stack else 0

    def add_child_time(self, ns: int) -> None:
        """Tell the open span that *ns* of it belongs to foreign child
        spans (those merged from a child process)."""
        if self._stack:
            self._stack[-1][4] += ns

    # -- queries -------------------------------------------------------
    def calls(self, layer: str, *names: str) -> int:
        return sum(self.totals.get((layer, n), (0, 0))[0] for n in names)

    def ms(self, layer: str, *names: str) -> float:
        return sum(self.totals.get((layer, n), (0, 0))[1]
                   for n in names) / 1e6

    def layer_self_ms(self, layer: str) -> float:
        return self.self_ns.get(layer, 0) / 1e6

    # -- child-process export / merge ----------------------------------
    def export(self) -> dict:
        return {"spans": self.spans, "counters": self.counters,
                "dropped": self.dropped}

    def merge_child(self, data: dict, parent_id: int) -> int:
        """Adopt a child process's spans under span *parent_id*; returns
        the nanoseconds its root spans cover."""
        remap: Dict[int, int] = {}
        spans = sorted(data["spans"], key=lambda s: s[3])
        children: Dict[int, int] = {}
        for span_id, _, _, t0, t1, parent, _ in spans:
            children[parent] = children.get(parent, 0) + (t1 - t0)
        covered = 0
        path_keys: Dict[int, frozenset] = {}  # (layer, name)s open above
        for span_id, layer, name, t0, t1, parent, _ in spans:
            remap[span_id] = self.new_id()
            if parent in remap:
                new_parent = remap[parent]
            else:
                new_parent = parent_id
                covered += t1 - t0
            above = path_keys.get(parent, frozenset())
            path_keys[span_id] = above | {(layer, name)}
            self.record(remap[span_id], layer, name, t0, t1, new_parent,
                        children.get(span_id, 0),
                        outermost=(layer, name) not in above)
        for name, amount in data["counters"].items():
            self.counters[name] = self.counters.get(name, 0) + amount
        self.dropped += data.get("dropped", 0)
        return covered

    def write_chrome_trace(self, path: str, metadata: dict) -> None:
        """Chrome trace-event JSON (opens in Perfetto / chrome://tracing)."""
        events = [{"name": "process_name", "ph": "M", "pid": os.getpid(),
                   "args": {"name": "perfbench"}}]
        for span_id, layer, name, t0, t1, parent, request in self.spans:
            events.append({
                "name": name, "cat": layer, "ph": "X",
                "ts": t0 / 1000.0, "dur": (t1 - t0) / 1000.0,
                "pid": os.getpid(), "tid": 1,
                "args": {"span_id": span_id, "parent_id": parent,
                         "request_id": request}})
        metadata = dict(metadata, spans_dropped=self.dropped)
        with open(path, "w") as fh:
            json.dump({"traceEvents": events, "otherData": metadata}, fh)


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _wrap(tracer: Tracer, func: Callable, layer: str, name: str,
          on_result: Optional[Callable] = None) -> Callable:
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        frame = tracer.begin(layer, name)
        try:
            result = func(*args, **kwargs)
            if on_result is not None and frame is not None:
                on_result(tracer, args, result)
            return result
        finally:
            tracer.end(frame)

    return wrapper


def _count_payload(direction: str):
    def note(tracer: Tracer, args, result) -> None:
        payload = result if direction == "encode" else args[0]
        tracer.count("wire.frames")
        tracer.count("wire.bytes", len(payload))
    return note


#: (module, attribute, layer, span name).  Several modules bind these
#: functions by name at import time, so each name is wrapped in the
#: module that calls it, not only where it is defined.
FUNCTION_TARGETS = [
    ("repro.bench", "get_benchmark", "dfg", "build"),
    ("repro.dfg.compiled", "compile_graph", "dfg", "compile"),
    ("repro.hls.fastsched", "compile_graph", "dfg", "compile"),
    ("repro.core.engine", "compile_graph", "dfg", "compile"),
    ("repro.hls.fastsched", "base_timing", "hls", "timing"),
    ("repro.hls.fastsched", "batched_timing", "hls", "timing"),
    ("repro.hls.fastsched", "fast_time_frames", "hls", "timing"),
    ("repro.hls.fastsched", "fast_density_schedule", "hls", "density"),
    ("repro.hls.fastsched", "batched_density_schedules", "hls", "density"),
    ("repro.hls.density", "density_schedule", "hls", "density_reference"),
    ("repro.core.engine", "density_schedule", "hls", "density_reference"),
    ("repro.hls.fastsched", "fast_list_schedule", "hls", "list"),
    ("repro.core.engine", "left_edge_bind", "hls", "bind"),
    ("repro.core.engine", "rebind_versions", "hls", "bind"),
    ("repro.core.design", "design_reliability", "reliability", "compose"),
    ("repro.core.cache_store", "load", "cache_store", "load"),
    ("repro.core.cache_store", "save", "cache_store", "save"),
]

#: (module, class, method, layer, span name)
METHOD_TARGETS = [
    ("repro.core.engine", "EvaluationEngine", "evaluate", "engine",
     "evaluate"),
    ("repro.core.engine", "EvaluationEngine", "evaluate_batch", "engine",
     "evaluate"),
    ("repro.core.engine", "EvaluationEngine", "min_latency", "engine",
     "timing"),
    ("repro.core.engine", "EvaluationEngine", "latency", "engine",
     "timing"),
    ("repro.core.engine", "EvaluationEngine", "latency_with_delay",
     "engine", "timing"),
    ("repro.core.engine", "EvaluationEngine", "latencies_with_delays",
     "engine", "timing"),
    ("repro.core.cache_server", "CacheClient", "synthesize", "service",
     "synthesize"),
    ("repro.core.cache_server", "CacheClient", "get_many", "service",
     "get_many"),
    ("repro.core.cache_server", "CacheClient", "put_many", "service",
     "put_many"),
    ("repro.core.cache_server", "CacheClient", "evaluate_batch", "service",
     "evaluate_batch"),
]

#: The search entry points, wrapped where a caller looks them up.
SEARCH_TARGETS = [
    ("repro.core", "synthesize"),
    ("repro.core", "find_design"),
    ("repro.core", "baseline_design"),
    ("repro.core", "combined_design"),
]

SERVICE_OPS = ("synthesize", "get_many", "put_many", "evaluate_batch")


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every target; returns a function that undoes it."""
    import importlib

    undo = []

    def patch(owner, attr, layer, name, on_result=None):
        original = getattr(owner, attr)
        setattr(owner, attr, _wrap(tracer, original, layer, name,
                                   on_result))
        undo.append((owner, attr, original))

    for module, attr, layer, name in FUNCTION_TARGETS:
        patch(importlib.import_module(module), attr, layer, name)
    for module, cls, method, layer, name in METHOD_TARGETS:
        patch(getattr(importlib.import_module(module), cls), method,
              layer, name)
    for module, attr in SEARCH_TARGETS:
        patch(importlib.import_module(module), attr, "search", attr)
    wire = importlib.import_module("repro.core.wire")
    patch(wire, "encode", "wire", "encode", _count_payload("encode"))
    patch(wire, "decode", "wire", "decode", _count_payload("decode"))
    tracer.enabled = True

    def uninstall() -> None:
        tracer.enabled = False
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)

    return uninstall
