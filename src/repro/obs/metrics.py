"""Process-wide counter/gauge registry with JSON export.

Counters are monotonically increasing event tallies (``cache.hit``,
``qm.merge_operations``, ``sim.compiled.settle_events``); gauges are
last-write-wins level readings (``cache.entries``, ``campaign.chunk_size``).
One process-global :data:`metrics` registry is wired into the result cache,
the campaign runner, the logic minimiser, the optimization pass manager and
both simulators, so any run can be asked "where did the work go" after the
fact -- ``sradgen --metrics-out FILE`` dumps the registry.

Instrumented code folds *aggregate* statistics into the registry (one
``incr`` per minimisation, per simulation batch, per pass run), never one
call per inner-loop event, so the always-on cost is a handful of dict
updates per evaluated design point.

Worker processes accumulate into their own copy of the registry; the
campaign runner snapshots counters around each batch and ships the delta
back with the results (:meth:`MetricsRegistry.counters_since` /
:meth:`MetricsRegistry.merge_counters`), so parallel and serial campaigns
report the same totals.
"""

from __future__ import annotations

import json
from typing import Dict, Mapping, Union

__all__ = ["MetricsRegistry", "metrics"]

Number = Union[int, float]


class MetricsRegistry:
    """Named counters and gauges; safe to read at any time, cheap to write."""

    def __init__(self) -> None:
        self._counters: Dict[str, Number] = {}
        self._gauges: Dict[str, Number] = {}

    # -------------------------------------------------------------- writing
    def incr(self, name: str, amount: Number = 1) -> None:
        """Add ``amount`` to the named counter (created at zero)."""
        self._counters[name] = self._counters.get(name, 0) + amount

    def gauge(self, name: str, value: Number) -> None:
        """Set the named gauge to ``value`` (last write wins)."""
        self._gauges[name] = value

    def reset(self) -> None:
        """Drop every counter and gauge."""
        self._counters.clear()
        self._gauges.clear()

    # -------------------------------------------------------------- reading
    def counter(self, name: str) -> Number:
        """Current value of a counter (0 when never incremented)."""
        return self._counters.get(name, 0)

    def counters(self) -> Dict[str, Number]:
        """Copy of all counters."""
        return dict(self._counters)

    def gauges(self) -> Dict[str, Number]:
        """Copy of all gauges."""
        return dict(self._gauges)

    def as_dict(self) -> Dict[str, Dict[str, Number]]:
        """Plain-dict form: ``{"counters": {...}, "gauges": {...}}``."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "gauges": dict(sorted(self._gauges.items())),
        }

    def to_json(self) -> str:
        """Canonical JSON dump of :meth:`as_dict`."""
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def describe(self) -> str:
        """Human-readable multi-line listing (counters, then gauges)."""
        lines = []
        for name, value in sorted(self._counters.items()):
            lines.append(f"  {name:<36} {value}")
        for name, value in sorted(self._gauges.items()):
            lines.append(f"  {name:<36} {value} (gauge)")
        return "\n".join(lines) if lines else "  (no metrics recorded)"

    # ------------------------------------------------- cross-process merging
    def snapshot(self) -> Dict[str, Number]:
        """Counter state now; pass to :meth:`counters_since` for a delta."""
        return dict(self._counters)

    def counters_since(self, snapshot: Mapping[str, Number]) -> Dict[str, Number]:
        """Counter increments since ``snapshot`` (zero-delta names omitted)."""
        delta: Dict[str, Number] = {}
        for name, value in self._counters.items():
            gained = value - snapshot.get(name, 0)
            if gained:
                delta[name] = gained
        return delta

    def merge_counters(self, delta: Mapping[str, Number]) -> None:
        """Fold a worker's counter delta into this registry."""
        for name, gained in delta.items():
            self.incr(name, gained)


#: The process-global registry every instrumented subsystem writes to.
metrics = MetricsRegistry()
