"""Telemetry subsystem: tracing, metrics and structured logging.

The observability plane for the whole stack, in three layers:

* :mod:`repro.obs.trace` -- hierarchical wall-clock **spans**
  (``with span("qm.minimize"): ...``) with a zero-allocation disabled path,
  serialisable across process pools and renderable as a tree
  (``sradgen --trace``);
* :mod:`repro.obs.metrics` -- a process-global **counter/gauge registry**
  (``metrics.incr("cache.hit")``) with JSON export
  (``sradgen --metrics-out``);
* :mod:`repro.obs.log` -- the **structured stderr logger** diagnostics go
  through, keeping piped stdout clean.

Everything here is dependency-free (it imports nothing from the rest of
``repro``), so any layer -- hdl, synth, engine, cli, tools -- may import it
without cycles.
"""

from repro.obs import log
from repro.obs.metrics import MetricsRegistry, metrics
from repro.obs.trace import (
    NULL_SPAN,
    Span,
    Tracer,
    enable_tracing,
    get_tracer,
    render_spans,
    set_tracer,
    span,
    tracing_enabled,
)

__all__ = [
    "MetricsRegistry",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "enable_tracing",
    "get_tracer",
    "log",
    "metrics",
    "render_spans",
    "set_tracer",
    "span",
    "tracing_enabled",
]
