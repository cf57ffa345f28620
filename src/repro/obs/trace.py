"""Hierarchical tracing: nestable spans with counters over the whole stack.

A *span* is one timed region of work (``qm.minimize``, ``flow.timing``,
``evaluate_job``); spans nest, so a traced run produces a tree attributing
every second of wall-clock to the stage that spent it.  The design goals, in
order:

1. **Free when off.**  The process-global tracer is disabled by default and
   :func:`span` then returns one pre-allocated no-op context manager -- no
   object allocation, no clock read, nothing on the span stack.  Campaign
   hot paths stay instrumented permanently because the disabled path is one
   attribute check.
2. **Cheap when on.**  An enabled span is one small object, two
   ``perf_counter`` reads and two list operations.
3. **Pool-transparent.**  Spans are plain data (:meth:`Span.to_dict` /
   :meth:`Span.from_dict`), so work recorded inside a
   ``ProcessPoolExecutor`` worker is serialised back with the batch results
   and re-parented under the dispatching span via :meth:`Tracer.adopt` --
   the rendered tree looks the same whether the campaign ran serially or
   over eight processes.

Enable tracing programmatically with :func:`enable_tracing`, from the CLI
with ``sradgen --trace``, or for a whole process tree (including pytest
runs) with the ``SRADGEN_TRACE=1`` environment variable.
"""

from __future__ import annotations

import os
import time
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "enable_tracing",
    "get_tracer",
    "render_spans",
    "set_tracer",
    "span",
    "tracing_enabled",
]

#: Environment variable force-enabling the global tracer at import time.
TRACE_ENV_VAR = "SRADGEN_TRACE"


class _NullSpan:
    """The shared do-nothing span returned while tracing is disabled.

    A single module-level instance (:data:`NULL_SPAN`) serves every
    disabled :func:`span` call, so instrumenting a hot loop costs one
    truthiness check and zero allocations when tracing is off.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False

    def add(self, counter: str, amount: Union[int, float] = 1) -> None:
        """Counter updates are dropped on the floor."""


NULL_SPAN = _NullSpan()


class Span:
    """One timed, nestable region of work.

    Used as a context manager (handed out by :meth:`Tracer.span`): entering
    attaches the span to the currently open span (or the tracer's roots) and
    starts the clock, exiting stops it.  ``counters`` holds named event
    counts recorded with :meth:`add`; ``detail`` is a free-form label shown
    in rendered trees (a job label, a campaign name).
    """

    __slots__ = ("name", "detail", "wall_s", "counters", "children", "_start", "_tracer")

    def __init__(self, name: str, detail: str = ""):
        self.name = name
        self.detail = detail
        self.wall_s = 0.0
        self.counters: Dict[str, float] = {}
        self.children: List["Span"] = []
        self._start = 0.0
        self._tracer: Optional["Tracer"] = None

    def add(self, counter: str, amount: Union[int, float] = 1) -> None:
        """Accumulate ``amount`` into the named counter."""
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -------------------------------------------------------- context manager
    def __enter__(self) -> "Span":
        tracer = self._tracer
        if tracer is not None:
            tracer._open(self)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> bool:
        self.wall_s = time.perf_counter() - self._start
        tracer = self._tracer
        if tracer is not None:
            tracer._close(self)
        return False

    # --------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (what worker processes ship back to the parent)."""
        data: Dict[str, Any] = {"name": self.name, "wall_s": self.wall_s}
        if self.detail:
            data["detail"] = self.detail
        if self.counters:
            data["counters"] = dict(self.counters)
        if self.children:
            data["children"] = [child.to_dict() for child in self.children]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Span":
        """Rebuild a span tree serialised by :meth:`to_dict`."""
        rebuilt = cls(data["name"], data.get("detail", ""))
        rebuilt.wall_s = data.get("wall_s", 0.0)
        rebuilt.counters = dict(data.get("counters", {}))
        rebuilt.children = [cls.from_dict(child) for child in data.get("children", ())]
        return rebuilt

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, wall_s={self.wall_s:.6f}, "
            f"children={len(self.children)})"
        )


class Tracer:
    """Span factory and stack; owns the tree a traced run produces.

    ``roots`` holds every top-level span recorded while the tracer was
    installed; nested spans hang off their parents.  One tracer belongs to
    one thread of execution (the stack is plain, not thread-local) -- worker
    processes get their own fresh tracer per batch and ship the resulting
    tree back as data.
    """

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.roots: List[Span] = []
        self._stack: List[Span] = []

    def span(self, name: str, detail: str = "") -> Union[Span, _NullSpan]:
        """A new span, or the shared no-op when this tracer is disabled."""
        if not self.enabled:
            return NULL_SPAN
        fresh = Span(name, detail)
        fresh._tracer = self
        return fresh

    def current(self) -> Optional[Span]:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def adopt(self, span_dicts: Sequence[Mapping[str, Any]]) -> List[Span]:
        """Re-parent serialised spans under the currently open span.

        This is the parent-process half of the worker-side collector: span
        trees recorded inside a pool worker arrive as dictionaries and are
        attached as children of whatever span is open at the adoption site
        (the campaign dispatch span), exactly where the work logically ran.
        """
        adopted = [Span.from_dict(data) for data in span_dicts]
        parent = self.current()
        target = parent.children if parent is not None else self.roots
        target.extend(adopted)
        return adopted

    def clear(self) -> None:
        """Drop every recorded span (the stack must be empty)."""
        if self._stack:
            raise RuntimeError(
                f"cannot clear tracer with {len(self._stack)} open span(s)"
            )
        self.roots = []

    # ------------------------------------------------------------- internals
    def _open(self, opened: Span) -> None:
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent.children.append(opened)
        else:
            self.roots.append(opened)
        self._stack.append(opened)

    def _close(self, closed: Span) -> None:
        if self._stack and self._stack[-1] is closed:
            self._stack.pop()
        elif closed in self._stack:  # pragma: no cover - misnested exit
            while self._stack and self._stack[-1] is not closed:
                self._stack.pop()
            self._stack.pop()


#: The process-global tracer; ``SRADGEN_TRACE=1`` force-enables it at import.
_TRACER = Tracer(enabled=os.environ.get(TRACE_ENV_VAR, "") not in ("", "0"))


def get_tracer() -> Tracer:
    """The process-global default tracer."""
    return _TRACER


def set_tracer(tracer: Tracer) -> Tracer:
    """Install ``tracer`` as the process-global default; returns it."""
    global _TRACER
    _TRACER = tracer
    return tracer


def enable_tracing(enabled: bool = True) -> None:
    """Switch the global tracer on (or off) in place."""
    _TRACER.enabled = enabled


def tracing_enabled() -> bool:
    """True when the global tracer records spans."""
    return _TRACER.enabled


def span(name: str, detail: str = "") -> Union[Span, _NullSpan]:
    """Open a span on the global tracer (the no-op singleton when disabled)."""
    tracer = _TRACER
    if not tracer.enabled:
        return NULL_SPAN
    fresh = Span(name, detail)
    fresh._tracer = tracer
    return fresh


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def render_spans(roots: Sequence[Span]) -> str:
    """Render a span forest as an indented text tree.

    Sibling spans sharing a name are folded into one line --
    ``evaluate_job x64   total 3.801 s`` -- which keeps a whole campaign's
    tree readable; a merged line's children are the merged children of all
    its members.  A span with no same-name sibling keeps its detail.
    """
    lines: List[str] = []

    def emit(name_part: str, wall_s: float, depth: int, extra: str) -> None:
        label = "  " * depth + name_part
        lines.append(f"{label:<48} {wall_s * 1000:10.2f} ms{extra}")

    def counters_suffix(counters: Mapping[str, float]) -> str:
        if not counters:
            return ""
        body = ", ".join(
            f"{key}={int(value) if float(value).is_integer() else value}"
            for key, value in sorted(counters.items())
        )
        return f"   [{body}]"

    def walk_merged(siblings: Sequence[Span], depth: int) -> None:
        groups: Dict[str, List[Span]] = {}
        for node in siblings:
            groups.setdefault(node.name, []).append(node)
        for name, members in groups.items():
            wall = sum(member.wall_s for member in members)
            counters: Dict[str, float] = {}
            children: List[Span] = []
            for member in members:
                children.extend(member.children)
                for key, value in member.counters.items():
                    counters[key] = counters.get(key, 0) + value
            if len(members) == 1:
                detail = f"  ({members[0].detail})" if members[0].detail else ""
                emit(name, wall, depth, detail + counters_suffix(counters))
            else:
                emit(f"{name} x{len(members)}", wall, depth, counters_suffix(counters))
            if children:
                walk_merged(children, depth + 1)

    walk_merged(list(roots), 0)
    return "\n".join(lines)
