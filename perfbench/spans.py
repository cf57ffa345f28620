"""A small in-memory tracer that wraps entry points from outside the program.

Spans record a name, start, end, parent and thread.  *Leaf* wrappers, meant
for per-cycle entry points such as ``Simulator.step``, record no span:
their time is charged to the enclosing span under the leaf's name, and
anything they call runs untraced.  A span's self time is its duration minus
its child spans and leaf time, so within one root the self times plus the
leaf times add up to the root's inclusive time.

``Patcher`` swaps wrappers in -- on the defining class for methods, and on
every ``repro`` module holding the same function object for functions --
and puts every original back on ``restore``.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

Counter = Callable[["Tracer", object, tuple, dict], None]


@dataclass
class Span:
    id: int
    name: str
    parent: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    detail: str = ""
    leaf: Dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self.origin = time.perf_counter()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # ----------------------------------------------------------- recording
    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _in_leaf(self) -> bool:
        return getattr(self._local, "in_leaf", False)

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counts[name] += amount

    @contextmanager
    def span(self, name: str, detail: str = "") -> Iterator[Span]:
        stack = self._stack()
        record = Span(
            next(self._ids),
            name,
            stack[-1].id if stack else None,
            threading.get_ident(),
            time.perf_counter(),
            detail=detail,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            self.spans.append(record)

    def wrap(self, fn: Callable, name: str, *, leaf: bool = False, counter: Optional[Counter] = None) -> Callable:
        """``fn`` recording a span called ``name``, or leaf time when ``leaf``.

        ``counter(tracer, result, args, kwargs)`` runs after each span
        wrapper's successful call; leaf wrappers only record time, because
        they sit on per-cycle paths.
        """
        tracer = self

        if leaf:

            @functools.wraps(fn)
            def leaf_wrapper(*args, **kwargs):
                local = tracer._local
                if getattr(local, "in_leaf", False):
                    return fn(*args, **kwargs)
                local.in_leaf = True
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    local.in_leaf = False
                    stack = tracer._stack()
                    if stack:
                        owner = stack[-1].leaf
                        owner[name] = owner.get(name, 0.0) + elapsed
                return result

            return leaf_wrapper

        @functools.wraps(fn)
        def span_wrapper(*args, **kwargs):
            if tracer._in_leaf():
                return fn(*args, **kwargs)
            with tracer.span(name):
                result = fn(*args, **kwargs)
            tracer.count(f"{name}.calls")
            if counter is not None:
                counter(tracer, result, args, kwargs)
            return result

        return span_wrapper

    # ------------------------------------------------------------ analysis
    def self_times(self) -> Dict[int, float]:
        """Span id -> self time (duration minus child spans and leaf time)."""
        children: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.parent is not None:
                children[span.parent] += span.duration
        return {
            span.id: span.duration - children[span.id] - sum(span.leaf.values())
            for span in self.spans
        }

    def layer_self_times(self) -> Dict[str, float]:
        """Span or leaf name -> total self time."""
        totals: Dict[str, float] = defaultdict(float)
        own = self.self_times()
        for span in self.spans:
            totals[span.name] += own[span.id]
            for name, seconds in span.leaf.items():
                totals[name] += seconds
        return dict(totals)

    def root_balance(self) -> List[Tuple[Span, float]]:
        """Per root span: (root, self times + leaf times summed over its tree)."""
        own = self.self_times()
        by_id = {span.id: span for span in self.spans}
        sums: Dict[int, float] = defaultdict(float)
        for span in self.spans:
            root = span
            while root.parent is not None:
                root = by_id[root.parent]
            sums[root.id] += own[span.id] + sum(span.leaf.values())
        return [(by_id[rid], total) for rid, total in sums.items()]

    # -------------------------------------------------------------- export
    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON (Perfetto, ``chrome://tracing``)."""
        own = self.self_times()
        pid = os.getpid()
        tids: Dict[int, int] = {}
        events = []
        for span in sorted(self.spans, key=lambda s: s.start):
            tid = tids.setdefault(span.thread, len(tids) + 1)
            args = {"self_us": round(own[span.id] * 1e6, 3)}
            if span.detail:
                args["detail"] = span.detail
            for name, seconds in span.leaf.items():
                args[f"{name}_us"] = round(seconds * 1e6, 3)
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": round((span.start - self.origin) * 1e6, 3),
                    "dur": round(span.duration * 1e6, 3),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                }
            )
        for thread, tid in tids.items():
            events.append(
                {"name": "thread_name", "ph": "M", "pid": pid, "tid": tid, "args": {"name": f"thread-{tid}"}}
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(), handle)


class Patcher:
    """Install tracer wrappers on ``repro`` entry points; restore them all."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self._saved: List[Tuple[object, str, object]] = []

    def _set(self, owner: object, attr: str, value: object) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    def method(self, cls: type, attr: str, name: str, **options) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            wrapped = type(raw)(self.tracer.wrap(raw.__func__, name, **options))
        else:
            wrapped = self.tracer.wrap(raw, name, **options)
        self._set(cls, attr, wrapped)

    def function(self, fn: Callable, name: str, **options) -> None:
        """Wrap ``fn`` wherever a loaded ``repro`` module holds it."""
        wrapped = self.tracer.wrap(fn, name, **options)
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    @property
    def patched(self) -> List[Tuple[object, str, object]]:
        return list(self._saved)
