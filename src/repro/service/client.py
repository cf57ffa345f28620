"""Clients for the campaign service.

:class:`ServiceClient` is the asyncio client (one connection, one request at
a time -- the protocol is request/stream/next-request per connection; open
more clients for concurrency).  :func:`run_campaign_remote` is the
synchronous convenience the CLI's ``--connect`` path uses: it runs a whole
:class:`~repro.engine.jobs.Campaign` against a remote server and
reassembles a :class:`~repro.engine.records.CampaignResult` with exactly the
semantics of a local
:meth:`CampaignRunner.run <repro.engine.runner.CampaignRunner.run>` --
records in campaign order, duplicates resolved to one evaluation,
``cached`` flags preserved.

Connection trouble surfaces as the typed
:class:`~repro.service.protocol.ServiceUnavailable` (never a raw
``OSError``), and resilience is opt-in via a
:class:`~repro.resilience.retry.RetryPolicy`: :meth:`ServiceClient.connect`
retries with deterministic backoff, and :meth:`ServiceClient.run_campaign`
survives a mid-stream disconnect by reconnecting and re-submitting *only*
the keys it has no record for yet -- records that completed server-side in
the meantime come back as cache hits, so a resumed campaign costs zero
duplicate evaluations.
"""

from __future__ import annotations

import asyncio
import contextlib
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.jobs import Campaign
from repro.engine.records import ERROR, CampaignResult, EvalRecord
from repro.obs import log, metrics
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ServiceError,
    ServiceUnavailable,
    decode_message,
    encode_message,
    job_to_wire,
)

__all__ = ["ServiceClient", "ServiceUnavailable", "run_campaign_remote"]

#: Progress callback: ``(record_event_dict)`` for each streamed record.
RecordCallback = Callable[[Dict[str, Any]], None]


def _record_from_event(event: Dict[str, Any]) -> EvalRecord:
    """The :class:`EvalRecord` a server ``record`` event describes.

    The diagnostics the cached dictionary form drops (``lint_findings``,
    ``verify_result``) are restored from beside it.
    """
    record = EvalRecord.from_dict(event["record"], cached=bool(event.get("cached")))
    record.lint_findings = event.get("lint_findings", [])
    record.verify_result = event.get("verify_result")
    return record


class ServiceClient:
    """One JSON-lines connection to a :class:`CampaignService`.

    ``retry_policy`` (optional) arms the self-healing paths: connect
    attempts retry under it, and :meth:`run_campaign` reconnects and
    resumes after a mid-stream disconnect.  Without a policy every
    connection failure is raised (as :class:`ServiceUnavailable`) on first
    occurrence -- the historical behaviour, minus the raw ``OSError``.
    """

    def __init__(
        self,
        host: str,
        port: int,
        *,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        self.host = host
        self.port = port
        self.retry_policy = retry_policy
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None

    async def __aenter__(self) -> "ServiceClient":
        await self.connect()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.close()

    async def connect(self) -> None:
        """Open the connection, retrying under the client's policy.

        Raises :class:`ServiceUnavailable` once the attempts (1 without a
        policy; ``1 + max_retries`` with one) are exhausted.
        """
        attempt = 0
        while True:
            try:
                fault_point("client.connect")
                self._reader, self._writer = await asyncio.open_connection(
                    self.host, self.port, limit=MAX_LINE_BYTES
                )
                return
            except OSError as error:
                attempt += 1
                policy = self.retry_policy
                if policy is None or attempt > policy.max_retries:
                    raise ServiceUnavailable(
                        f"cannot connect to campaign service at "
                        f"{self.host}:{self.port}: {error}"
                    ) from error
                metrics.incr("client.connect_retries")
                log.warning(
                    "connect failed; retrying",
                    component="client",
                    host=self.host,
                    port=self.port,
                    attempt=attempt,
                    error=str(error),
                )
                await asyncio.sleep(policy.backoff_s(attempt))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):  # pragma: no cover  # sradlint: disable=ast.silent-except -- closing anyway; peer already gone
                pass
            self._reader = self._writer = None

    # -------------------------------------------------------------- plumbing
    async def _send(self, message: Dict[str, Any]) -> None:
        if self._writer is None:
            raise ServiceError("client is not connected")
        try:
            self._writer.write(encode_message(message))
            await self._writer.drain()
        except OSError as error:
            raise ServiceUnavailable(f"connection lost while sending: {error}") from error

    async def _recv(self) -> Dict[str, Any]:
        if self._reader is None:
            raise ServiceError("client is not connected")
        try:
            # Inside the OSError wrapper on purpose: an injected connection
            # fault surfaces exactly like a real one (ServiceUnavailable).
            fault_point("client.stream")
            line = await self._reader.readline()
        except OSError as error:
            raise ServiceUnavailable(f"connection lost mid-stream: {error}") from error
        if not line:
            raise ServiceUnavailable("server closed the connection")
        return decode_message(line)

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """Send one single-response request (``ping``/``metrics``/``shutdown``)."""
        await self._send(message)
        response = await self._recv()
        if response.get("event") == "error":
            raise ServiceError(response.get("error", "unknown server error"))
        return response

    # ------------------------------------------------------------ operations
    async def ping(self) -> Dict[str, Any]:
        return await self.request({"op": "ping"})

    async def metrics(self) -> Dict[str, Any]:
        """The server's ``repro.obs`` counter snapshot."""
        return (await self.request({"op": "metrics"}))["counters"]

    async def shutdown_server(self) -> None:
        await self.request({"op": "shutdown"})

    async def run_jobs(
        self,
        wire_jobs: List[Dict[str, Any]],
        *,
        force: bool = False,
        timeout: Optional[float] = None,
        on_record: Optional[RecordCallback] = None,
        request_id: Optional[str] = None,
    ) -> Tuple[List[Dict[str, Any]], Dict[str, Any]]:
        """Run an explicit job list; returns ``(record_events, end_event)``.

        Each record event carries the server's ``record`` dictionary (the
        exact cached form) plus its ``cached`` flag; the accepted event's
        counters land on the returned end event under ``"accepted"``.
        Server ``heartbeat`` events are consumed silently.  A lost
        connection raises :class:`ServiceUnavailable`; records already
        streamed were delivered through ``on_record`` first, which is what
        lets :meth:`run_campaign` resume without re-requesting them.
        """
        message: Dict[str, Any] = {"op": "jobs", "jobs": wire_jobs, "force": force}
        if timeout is not None:
            message["timeout"] = timeout
        if request_id is not None:
            message["id"] = request_id
        await self._send(message)
        accepted = await self._recv()
        if accepted.get("event") == "error":
            raise ServiceError(accepted.get("error", "request rejected"))
        if accepted.get("event") != "accepted":
            raise ServiceError(f"unexpected server message: {accepted}")
        records: List[Dict[str, Any]] = []
        while True:
            event = await self._recv()
            kind = event.get("event")
            if kind == "record":
                records.append(event)
                if on_record is not None:
                    on_record(event)
            elif kind == "heartbeat":
                continue  # keep-alive during a quiet evaluation stretch
            elif kind == "end":
                event["accepted"] = accepted
                return records, event
            elif kind == "error":
                raise ServiceError(event.get("error", "evaluation failed"))
            else:
                raise ServiceError(f"unexpected server message: {event}")

    async def run_campaign(
        self,
        campaign: Campaign,
        *,
        force: bool = False,
        on_record: Optional[RecordCallback] = None,
    ) -> CampaignResult:
        """Run a local :class:`Campaign` object remotely.

        The grid is shipped job-by-job in one ``jobs`` request, so
        anything a local runner could evaluate works remotely -- no need
        for the campaign to be registered server-side.

        With a ``retry_policy`` on the client, a dropped connection is
        healed in place: reconnect (with backoff), then re-submit only the
        jobs whose records have not arrived yet.  Keys the server finished
        during the outage are answered from its cache, so the resume is
        idempotent -- one evaluation per unique key, disconnect or not.

        Transient (``error``-status) records are likewise not taken as
        final while the policy has budget: a resume can race the server's
        own cleanup of the connection it lost and be handed that doomed
        submission's synthetic cancellation records, so the client
        re-requests those keys (``client.error_retries``) before accepting
        an error as the campaign's answer.
        """
        by_key: Dict[str, EvalRecord] = {}

        def collect(event: Dict[str, Any]) -> None:
            record = _record_from_event(event)
            by_key[record.key] = record
            if on_record is not None:
                on_record(event)

        reconnects = 0
        error_rounds = 0
        while True:
            policy = self.retry_policy
            retriable: List[str] = []
            if policy is not None and error_rounds < policy.max_retries:
                retriable = [
                    key for key, rec in by_key.items() if rec.status == ERROR
                ]
            pending = [
                job
                for job in campaign.jobs
                if job.key not in by_key or job.key in retriable
            ]
            if not pending:
                break
            if retriable:
                error_rounds += 1
                metrics.incr("client.error_retries")
                log.warning(
                    "re-requesting transient error records",
                    component="client",
                    keys=len(retriable),
                    round=error_rounds,
                )
                for key in retriable:
                    del by_key[key]
                await asyncio.sleep(policy.backoff_s(error_rounds))
            try:
                await self.run_jobs(
                    [job_to_wire(job) for job in pending], force=force, on_record=collect
                )
            except ServiceUnavailable as error:
                reconnects += 1
                policy = self.retry_policy
                if policy is None or reconnects > policy.max_retries:
                    raise
                metrics.incr("client.reconnects")
                log.warning(
                    "connection lost mid-campaign; reconnecting to resume",
                    component="client",
                    received=len(by_key),
                    missing=len(pending),
                    reconnect=reconnects,
                    error=str(error),
                )
                await asyncio.sleep(policy.backoff_s(reconnects))
                with contextlib.suppress(Exception):
                    await self.close()
                await self.connect()
                continue
        missing = [job.key for job in campaign.jobs if job.key not in by_key]
        if missing:
            raise ServiceError(
                f"server returned no record for {len(missing)} job key(s)"
            )
        return CampaignResult(
            campaign=campaign.name,
            records=[by_key[job.key] for job in campaign.jobs],
        )


def run_campaign_remote(
    host: str,
    port: int,
    campaign: Campaign,
    *,
    force: bool = False,
    progress: Optional[Callable[[EvalRecord, int, int], None]] = None,
    retry_policy: Optional[RetryPolicy] = None,
) -> CampaignResult:
    """Synchronous remote equivalent of ``CampaignRunner(...).run(campaign)``.

    ``progress`` mirrors the runner's callback signature
    (``progress(record, done, total)``); ``done``/``total`` count *unique*
    server-side records, which for duplicate-free campaigns equals the
    runner's counting.  ``retry_policy`` arms connect-retry and mid-stream
    reconnect-and-resume (see :meth:`ServiceClient.run_campaign`).
    """

    async def _run() -> CampaignResult:
        async with ServiceClient(host, port, retry_policy=retry_policy) as client:
            on_record: Optional[RecordCallback] = None
            if progress is not None:

                def on_record(event: Dict[str, Any]) -> None:
                    progress(_record_from_event(event), event["done"], event["total"])

            return await client.run_campaign(campaign, force=force, on_record=on_record)

    return asyncio.run(_run())
