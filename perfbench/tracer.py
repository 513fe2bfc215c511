"""In-memory span recorder for the benchmark's traced runs.

The tracer times calls into the program's layers from outside: it
replaces a layer's public entry points with wrappers that record a
span (name, start, end, parent span, operation id) and restores the
originals on :meth:`Tracer.close`.  Nothing under ``src/`` knows about
it, and an untraced run installs no wrapper at all.

Spans stay in memory until :meth:`Tracer.write` dumps them as JSON and
as a Chrome trace-event file (load it in ``chrome://tracing`` or
Perfetto).  A layer's *self time* is its spans' duration minus the
part covered by their direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

# One span: [id, name, start_ns, end_ns, parent_id, op_id].
Span = List[Any]


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.recording = True
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._ops = 0
        self._undo: List[Tuple[Any, str, Any]] = []
        self._originals: Dict[int, Any] = {}

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str, op: bool = False) -> Iterator[Span]:
        """Record ``name`` around the block.  ``op=True`` starts a new
        operation: every span opened inside shares its id."""
        if op:
            self._ops += 1
            self._op = self._ops
        rec: Span = [len(self.spans), name, time.perf_counter_ns(), 0,
                     self._stack[-1] if self._stack else None, self._op]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter_ns()
            self._stack.pop()
            if op:
                self._op = None

    @contextmanager
    def paused(self) -> Iterator[None]:
        """Run the block without recording (the benchmark's own output
        checks call the same layers but are not the workload)."""
        self.recording = False
        try:
            yield
        finally:
            self.recording = True

    # -- wrapping the program's layers -------------------------------------

    def _traced(self, fn: Callable[..., Any], name: str) -> Callable[..., Any]:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.recording:
                return fn(*args, **kwargs)
            with tracer.span(name):
                return fn(*args, **kwargs)
        self._originals[id(traced)] = (traced, fn)
        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap_method(self, cls: type, attr: str, name: str) -> None:
        """Trace ``cls.attr`` (a plain function defined on ``cls``)."""
        self._patch(cls, attr, self._traced(cls.__dict__[attr], name))

    def wrap_function(self, fn: Callable[..., Any], name: str) -> None:
        """Trace module-level ``fn`` under every ``repro`` module name
        that binds it (``from m import fn`` copies the reference)."""
        traced = self._traced(fn, name)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._patch(mod, attr, traced)

    def set_attr(self, owner: Any, attr: str, value: Any) -> None:
        """Replace an attribute until :meth:`close`."""
        self._patch(owner, attr, value)

    def close(self) -> None:
        """Restore everything the tracer replaced, including copies a
        module imported from a patched one while tracing."""
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)
        for mod in _repro_modules():
            for attr, value in list(vars(mod).items()):
                hit = self._originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])
        self._originals.clear()

    # -- analysis ----------------------------------------------------------

    def self_ns(self) -> Dict[str, int]:
        """Self time per span name."""
        child: Dict[int, int] = defaultdict(int)
        for s in self.spans:
            if s[4] is not None:
                child[s[4]] += s[3] - s[2]
        out: Dict[str, int] = defaultdict(int)
        for s in self.spans:
            out[s[1]] += s[3] - s[2] - child[s[0]]
        return out

    def calls(self, name: str, op_id: Optional[int] = None) -> int:
        return sum(1 for s in self.spans
                   if s[1] == name and (op_id is None or s[5] == op_id))

    def total_ns(self, name: str, op_id: Optional[int] = None) -> int:
        return sum(s[3] - s[2] for s in self.spans
                   if s[1] == name and (op_id is None or s[5] == op_id))

    # -- output ------------------------------------------------------------

    def write(self, stem: str, meta: Dict[str, Any]) -> Tuple[str, str]:
        """Write ``<stem>.spans.json`` and ``<stem>.chrome.json``."""
        os.makedirs(os.path.dirname(stem) or ".", exist_ok=True)
        keys = ("id", "name", "start_ns", "end_ns", "parent", "op")
        spans_path = stem + ".spans.json"
        with open(spans_path, "w") as fh:
            json.dump({"meta": meta,
                       "spans": [dict(zip(keys, s)) for s in self.spans]},
                      fh)
        t0 = self.spans[0][2] if self.spans else 0
        events = [{"name": s[1], "cat": s[1].split(".")[0], "ph": "X",
                   "ts": (s[2] - t0) / 1e3, "dur": (s[3] - s[2]) / 1e3,
                   "pid": 1, "tid": 1,
                   "args": {"id": s[0], "parent": s[4], "op": s[5]}}
                  for s in self.spans]
        chrome_path = stem + ".chrome.json"
        with open(chrome_path, "w") as fh:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms",
                       "otherData": meta}, fh)
        return spans_path, chrome_path


def _repro_modules() -> List[Any]:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and name.split(".")[0] == "repro"]


class CallCounter:
    """Count and time calls of a hot callable (no span per call: the
    scalar ``init_value`` input runs ~10^5 times per execution)."""

    def __init__(self, fn: Callable[..., Any]) -> None:
        self.fn = fn
        self.calls = 0
        self.ns = 0

    def __call__(self, *args: Any) -> Any:
        t0 = time.perf_counter_ns()
        try:
            return self.fn(*args)
        finally:
            self.ns += time.perf_counter_ns() - t0
            self.calls += 1
