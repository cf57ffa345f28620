"""JSON-lines wire protocol for the campaign service.

One JSON object per ``\\n``-terminated line, in both directions.  Every
request carries an ``op`` and an optional client-chosen ``id`` that the
server echoes on every message it emits for that request, so one connection
can multiplex responses.

Requests
--------
``{"op": "ping"}``
    Liveness/version probe; answered with one ``{"ok": true, ...}`` line.
``{"op": "metrics"}``
    Snapshot of the server's ``repro.obs`` counters (dedup hits, cache
    hits/misses, batches dispatched, ...).
``{"op": "jobs", "jobs": [JOB, ...], "force": false, "timeout": S}``
    Evaluate a grid: each ``JOB`` is :func:`job_to_wire` output -- the job
    identity plus its canonical spec dictionary.  Clients expand named
    campaigns and apply :class:`~repro.flow.FlowSpec` overrides before
    they ship the jobs, so one request shape serves registered campaigns
    and arbitrary design points alike.  ``timeout`` (seconds) bounds the
    evaluation; the server's default applies when it is absent.
``{"op": "shutdown"}``
    Ask the server to drain in-flight requests and exit.

Evaluation responses (``jobs``)
-------------------------------
One ``{"event": "accepted", "jobs": N, "unique": U, "cached": C,
"pending": P, "deduped": D}`` line, then one
``{"event": "record", "done": i, "total": U, "cached": bool,
"record": {...}}`` line per unique job *as each evaluation completes*
(``record`` is the exact cached dictionary form of
:meth:`~repro.engine.records.EvalRecord.to_dict`; a freshly linted or
verified record adds ``"lint_findings": [...]`` / ``"verify_result": {...}``
beside it), then one
``{"event": "end", "ok": true, "records": U, "wall_s": ...}`` line.
Failures produce ``{"event": "error", "error": "..."}`` instead of
``end``; the connection stays usable.

During a quiet stretch of an evaluation stream (no record for
``heartbeat_interval`` seconds) the server interleaves
``{"event": "heartbeat", "done": i}`` lines.  They are keep-alives, not
data: clients skip them, and a send failure on one is how the server
detects a vanished client and cancels its orphaned submission.

The formats here are deliberately the canonical dictionaries PR 4
established -- a request round-trips through
:meth:`FlowSpec.to_spec`/:meth:`FlowSpec.from_spec`, so the server-side
``EvalJob.key`` (and therefore the cache identity) is byte-identical to
what the client would compute locally.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.engine.jobs import EvalJob
from repro.flow import FlowSpec

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "ServiceError",
    "ServiceUnavailable",
    "decode_message",
    "encode_message",
    "job_from_wire",
    "job_to_wire",
]

#: Bump on incompatible wire changes; ``ping`` reports it.
PROTOCOL_VERSION = 3

#: Hard per-line bound (requests *and* responses).  A whole smoke campaign
#: serialises to a few KiB; 1 MiB leaves two orders of magnitude of headroom
#: while still bounding a malicious or corrupted stream.
MAX_LINE_BYTES = 1 << 20


class ServiceError(Exception):
    """A malformed or unserviceable protocol message."""


class ServiceUnavailable(ServiceError):
    """The service cannot be reached (or the connection was lost).

    The typed wrapper around ``ConnectionRefusedError`` / ``OSError`` /
    mid-stream EOF that clients raise instead of leaking raw socket
    errors: callers can distinguish "the server is down" (retryable,
    actionable, exit code 3 in the CLI) from a protocol-level
    :class:`ServiceError` (a bug or a bad request).
    """


def encode_message(message: Dict[str, Any]) -> bytes:
    """Serialise one protocol message to its wire line (``\\n`` included)."""
    line = json.dumps(message, sort_keys=True, separators=(",", ":")) + "\n"
    data = line.encode("utf-8")
    if len(data) > MAX_LINE_BYTES:
        raise ServiceError(
            f"message of {len(data)} bytes exceeds the {MAX_LINE_BYTES}-byte line limit"
        )
    return data


def decode_message(line: bytes) -> Dict[str, Any]:
    """Parse one wire line into a message dictionary.

    Raises :class:`ServiceError` for anything that is not a single JSON
    object -- the caller reports it and keeps the connection alive.
    """
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ServiceError(f"malformed protocol line: {error}") from None
    if not isinstance(message, dict):
        raise ServiceError(
            f"protocol line must be a JSON object, got {type(message).__name__}"
        )
    return message


def job_to_wire(job: EvalJob) -> Dict[str, Any]:
    """The wire form of one job: identity fields + canonical spec dict."""
    return {
        "workload": job.workload,
        "rows": job.rows,
        "cols": job.cols,
        "style": job.style,
        "variant": job.variant,
        "spec": job.spec.to_spec(),
    }


def job_from_wire(data: Dict[str, Any]) -> EvalJob:
    """Rebuild an :class:`EvalJob` from :func:`job_to_wire` output.

    Raises :class:`ServiceError` on missing identity fields or unknown spec
    fields (a newer client talking to an older server should fail loudly,
    not silently evaluate a different design point).
    """
    if not isinstance(data, dict):
        raise ServiceError(f"job must be a JSON object, got {type(data).__name__}")
    missing = [
        name
        for name in ("workload", "rows", "cols", "style", "variant")
        if name not in data
    ]
    if missing:
        raise ServiceError(f"job is missing field(s): {', '.join(missing)}")
    spec_data = data.get("spec", {})
    if not isinstance(spec_data, dict):
        raise ServiceError("job 'spec' must be a JSON object")
    try:
        spec = FlowSpec.from_spec(spec_data)
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad job spec: {error}") from None
    try:
        return EvalJob(
            workload=data["workload"],
            rows=int(data["rows"]),
            cols=int(data["cols"]),
            style=data["style"],
            variant=data["variant"],
            spec=spec,
        )
    except (TypeError, ValueError) as error:
        raise ServiceError(f"bad job: {error}") from None
