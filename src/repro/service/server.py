"""The campaign service server: asyncio streams over one shared scheduler.

:class:`CampaignService` accepts any number of concurrent JSON-lines
connections (:mod:`repro.service.protocol`) and funnels every evaluation
request into a single :class:`~repro.engine.scheduler.Scheduler`.  That is
the whole point of the layering: concurrent clients share the warmed
process pool, the result cache *and* the in-flight dedup table, so two
clients sweeping overlapping grids cost one evaluation per overlapping
point, not two.

The scheduler is synchronous (its consumers block on queues); the bridge is
one pump thread per evaluation request that drains
:meth:`Submission.results` and hands each record to the event loop with
``call_soon_threadsafe``.  The loop itself only ever parses lines, writes
lines and waits -- it never blocks on an evaluation.

Observability rides :mod:`repro.obs`: every request runs under a
``service.request`` span, and the registry gains ``service.connections`` /
``service.requests`` / ``service.active_requests`` (queue depth) next to
the scheduler's ``scheduler.dedup_hits`` / ``scheduler.inflight`` --
the ``metrics`` op exposes all of it to remote clients.
"""

from __future__ import annotations

import asyncio
import contextlib
import threading
import time
from typing import Any, Dict, List, Optional, Tuple

from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob
from repro.engine.scheduler import Scheduler, SchedulerTimeout
from repro.obs import log, metrics, span
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.service.protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ServiceError,
    decode_message,
    encode_message,
    job_from_wire,
)

__all__ = ["CampaignService"]

#: Evaluation deadline of a request that sets no ``timeout`` of its own.
REQUEST_TIMEOUT_S = 600.0

#: How long shutdown waits for in-flight requests before cancelling them.
DRAIN_TIMEOUT_S = 10.0


class CampaignService:
    """A long-running evaluation server over one shared scheduler.

    Parameters
    ----------
    cache:
        The :class:`ResultCache` every request reads and populates;
        defaults to a fresh in-memory cache.  Like every writer, the
        service appends to a segment of its own under the cache lock, so
        a CLI run or a compaction may share its directory.
    workers / retry_policy:
        Forwarded to the private :class:`Scheduler` (``retry_policy`` is
        the self-healing knob from :mod:`repro.resilience`; a broken pool is
        rebuilt up to the scheduler's default budget of two).
    heartbeat_interval:
        Seconds of per-request silence before the server emits a
        ``heartbeat`` event.  Heartbeats keep long evaluations from looking
        like dead connections *and* probe the socket: a client that
        vanished mid-evaluation is detected at the next beat and its
        submission is cancelled instead of pumping into the void.  Must be
        positive: heartbeats are always on.

    A request's evaluation deadline is its own ``timeout`` field, else
    :data:`REQUEST_TIMEOUT_S`; shutdown waits :data:`DRAIN_TIMEOUT_S` for
    in-flight requests before closing their connections.
    """

    def __init__(
        self,
        *,
        cache: Optional[ResultCache] = None,
        workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        heartbeat_interval: float = 5.0,
    ):
        if heartbeat_interval <= 0:
            raise ValueError(f"heartbeat_interval must be > 0, got {heartbeat_interval}")
        self._scheduler = Scheduler(cache, workers=workers, retry_policy=retry_policy)
        self.heartbeat_interval = heartbeat_interval
        self._server: Optional[asyncio.AbstractServer] = None
        self._requests: "set[asyncio.Task]" = set()
        self._connections: "set[asyncio.Task]" = set()
        self._shutdown_event: Optional[asyncio.Event] = None

    # ------------------------------------------------------------ lifecycle
    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` -- port is concrete even if 0 was asked."""
        if self._server is None or not self._server.sockets:
            raise RuntimeError("service is not started")
        return self._server.sockets[0].getsockname()[:2]

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Tuple[str, int]:
        """Bind and start accepting connections; returns the bound address."""
        self._shutdown_event = asyncio.Event()
        self._server = await asyncio.start_server(
            self._handle_client, host, port, limit=MAX_LINE_BYTES
        )
        bound = self.address
        log.info(
            "campaign service listening",
            component="service",
            host=bound[0],
            port=bound[1],
            workers=self._scheduler.workers,
        )
        return bound

    async def serve_forever(self) -> None:
        """Serve until :meth:`request_shutdown` (or a ``shutdown`` request) fires."""
        if self._server is None or self._shutdown_event is None:
            raise RuntimeError("service is not started")
        await self._shutdown_event.wait()
        await self._drain()

    def request_shutdown(self) -> None:
        """Flip the shutdown event (safe to call from a signal handler)."""
        if self._shutdown_event is not None:
            self._shutdown_event.set()

    async def _drain(self) -> None:
        """Stop accepting, wait for in-flight requests, release the pool."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        pending = [task for task in self._requests if not task.done()]
        if pending:
            log.info(
                "draining in-flight requests",
                component="service",
                requests=len(pending),
                timeout_s=DRAIN_TIMEOUT_S,
            )
            done, still_pending = await asyncio.wait(
                pending, timeout=DRAIN_TIMEOUT_S
            )
            for task in still_pending:
                task.cancel()
            if still_pending:
                await asyncio.gather(*still_pending, return_exceptions=True)
        # Idle connections (blocked in readline) would otherwise be torn
        # down noisily when the event loop closes.
        connections = [task for task in self._connections if not task.done()]
        for task in connections:
            task.cancel()
        if connections:
            await asyncio.gather(*connections, return_exceptions=True)
        self._scheduler.close()
        log.info("campaign service stopped", component="service")

    # ------------------------------------------------------------- protocol
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        metrics.incr("service.connections")
        write_lock = asyncio.Lock()
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        try:
            while True:  # sradlint: disable=ast.bare-retry-loop -- request read loop: each pass consumes a new protocol line, not a retry
                try:
                    line = await reader.readline()
                except (
                    asyncio.LimitOverrunError,
                    ValueError,
                ):  # oversized line: unrecoverable framing loss
                    await self._send(
                        writer, write_lock, {"event": "error", "error": "line too long"}
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                try:
                    request = decode_message(line)
                except ServiceError as error:
                    await self._send(
                        writer, write_lock, {"event": "error", "error": str(error)}
                    )
                    continue
                await self._dispatch_request(request, writer, write_lock)
                if self._shutdown_event is not None and self._shutdown_event.is_set():
                    break
        except (ConnectionResetError, BrokenPipeError):  # pragma: no cover  # sradlint: disable=ast.silent-except -- client vanished mid-write; nothing to answer
            pass
        except asyncio.CancelledError:  # sradlint: disable=ast.silent-except -- server drain: close the connection and exit cleanly
            pass
        finally:
            if task is not None:
                self._connections.discard(task)
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    async def _dispatch_request(
        self,
        request: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        op = request.get("op")
        envelope = {"id": request["id"]} if "id" in request else {}
        metrics.incr("service.requests")
        with span("service.request", detail=str(op)):
            if op == "ping":
                await self._send(
                    writer,
                    write_lock,
                    {**envelope, "ok": True, "op": "ping", "protocol": PROTOCOL_VERSION},
                )
            elif op == "metrics":
                await self._send(
                    writer,
                    write_lock,
                    {**envelope, "ok": True, "op": "metrics", "counters": metrics.counters()},
                )
            elif op == "shutdown":
                await self._send(writer, write_lock, {**envelope, "ok": True, "op": "shutdown"})
                self.request_shutdown()
            elif op == "jobs":
                task = asyncio.ensure_future(
                    self._run_evaluation(request, envelope, writer, write_lock)
                )
                self._requests.add(task)
                metrics.gauge("service.active_requests", len(self._requests))
                task.add_done_callback(self._retire_request)
                # One request at a time per connection: the protocol is
                # strictly request/stream/next-request, so awaiting here
                # keeps per-connection ordering while other connections
                # proceed concurrently.
                try:
                    await asyncio.shield(task)
                except asyncio.CancelledError:
                    raise
                except Exception as error:
                    await self._send(
                        writer,
                        write_lock,
                        {
                            **envelope,
                            "event": "error",
                            "error": f"internal error: {type(error).__name__}: {error}",
                        },
                    )
            else:
                await self._send(
                    writer,
                    write_lock,
                    {**envelope, "event": "error", "error": f"unknown op: {op!r}"},
                )

    def _retire_request(self, task: "asyncio.Task") -> None:
        self._requests.discard(task)
        metrics.gauge("service.active_requests", len(self._requests))
        if not task.cancelled() and task.exception() is not None:  # pragma: no cover
            log.warning(
                "request task died",
                component="service",
                error=str(task.exception()),
            )

    # ----------------------------------------------------------- evaluation
    def _jobs_from_request(self, request: Dict[str, Any]) -> Tuple[List[EvalJob], str]:
        """Materialise the request's job list; raises ServiceError when bad."""
        wire_jobs = request.get("jobs")
        if not isinstance(wire_jobs, list) or not wire_jobs:
            raise ServiceError("'jobs' must be a non-empty list")
        return [job_from_wire(item) for item in wire_jobs], f"{len(wire_jobs)} job(s)"

    async def _run_evaluation(
        self,
        request: Dict[str, Any],
        envelope: Dict[str, Any],
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        start = time.perf_counter()
        try:
            jobs, label = self._jobs_from_request(request)
            timeout = float(request.get("timeout") or REQUEST_TIMEOUT_S)
            force = bool(request.get("force", False))
        except ServiceError as error:
            await self._send(
                writer, write_lock, {**envelope, "event": "error", "error": str(error)}
            )
            return
        # submit() may fault in a cold on-disk cache; keep it off the loop.
        submission = await asyncio.to_thread(
            self._scheduler.submit, jobs, force=force
        )
        await self._send(
            writer,
            write_lock,
            {
                **envelope,
                "event": "accepted",
                "label": label,
                "jobs": len(jobs),
                "unique": submission.expected,
                "cached": len(submission.cached_keys),
                "pending": submission.pending,
                "deduped": submission.deduped,
            },
        )

        loop = asyncio.get_running_loop()
        events: "asyncio.Queue[Tuple[str, Any]]" = asyncio.Queue()

        def push(kind: str, payload: Any) -> None:
            try:
                loop.call_soon_threadsafe(events.put_nowait, (kind, payload))
            except RuntimeError:  # pragma: no cover  # sradlint: disable=ast.silent-except -- loop closed mid-drain; events are best-effort
                pass

        def pump() -> None:
            # The scheduler API is synchronous; this thread is the blocking
            # consumer, forwarding records into the loop as they complete.
            try:
                for record in submission.results(timeout=timeout):
                    push("record", record)
                push("end", None)
            except SchedulerTimeout as error:
                push("timeout", str(error))
            except Exception as error:  # pragma: no cover - defensive
                push("fail", f"{type(error).__name__}: {error}")

        thread = threading.Thread(
            target=pump, name="sradgen-service-pump", daemon=True
        )
        thread.start()
        done = 0
        try:
            while True:
                try:
                    kind, payload = await asyncio.wait_for(
                        events.get(), timeout=self.heartbeat_interval
                    )
                except asyncio.TimeoutError:
                    # Quiet interval: beat.  A failed beat means the
                    # client is gone -- the except below cleans up.
                    metrics.incr("service.heartbeats")
                    await self._send(
                        writer,
                        write_lock,
                        {**envelope, "event": "heartbeat", "done": done},
                    )
                    continue
                if kind == "record":
                    done += 1
                    event = {
                        **envelope,
                        "event": "record",
                        "done": done,
                        "total": submission.expected,
                        "cached": payload.cached,
                        "record": payload.to_dict(),
                    }
                    # The diagnostics are volatile, so the cached form
                    # drops them; they travel beside it.
                    if payload.lint_findings:
                        event["lint_findings"] = payload.lint_findings
                    if payload.verify_result is not None:
                        event["verify_result"] = payload.verify_result
                    await self._send(writer, write_lock, event)
                elif kind == "timeout":
                    submission.cancel()
                    metrics.incr("service.request_timeouts")
                    await self._send(
                        writer, write_lock, {**envelope, "event": "error", "error": payload}
                    )
                    return
                elif kind == "fail":
                    submission.cancel()
                    await self._send(
                        writer, write_lock, {**envelope, "event": "error", "error": payload}
                    )
                    return
                else:  # end
                    await self._send(
                        writer,
                        write_lock,
                        {
                            **envelope,
                            "event": "end",
                            "ok": True,
                            "records": done,
                            "wall_s": round(time.perf_counter() - start, 6),
                        },
                    )
                    return
        except (ConnectionResetError, BrokenPipeError, OSError) as error:
            # The client vanished mid-stream (or a beat found the socket
            # dead).  Cancel the orphaned submission so the pump thread and
            # the scheduler's serial queue unblock; evaluations already on
            # the pool complete and land in the cache regardless, so a
            # reconnecting client resumes from cached records.
            metrics.incr("service.orphaned_submissions")
            log.warning(
                "client lost mid-evaluation; cancelling orphaned submission",
                component="service",
                delivered=done,
                expected=submission.expected,
                error=f"{type(error).__name__}: {error}",
            )
            submission.cancel()
        except asyncio.CancelledError:
            # Drain timeout expired during shutdown: abandon the submission
            # so the pump thread (and any joined clients) unblock.
            submission.cancel()
            raise
        finally:
            thread.join(timeout=1.0)

    @staticmethod
    async def _send(
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
        message: Dict[str, Any],
    ) -> None:
        data = encode_message(message)
        async with write_lock:
            fault_point("service.write")
            writer.write(data)
            await writer.drain()
