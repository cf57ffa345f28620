"""Campaign service: protocol, round-trips, concurrency, shutdown."""

import asyncio
import contextlib
import math
import threading
import time
from dataclasses import replace

import pytest

from repro.engine import jobs as jobs_module
from repro.engine import runner as runner_module
from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign, EvalJob
from repro.engine.records import EvalRecord
from repro.engine.runner import CampaignRunner
from repro.engine.sweep import build_campaign
from repro.flow import FlowSpec
from repro.service.client import ServiceClient, run_campaign_remote
from repro.service.protocol import (
    MAX_LINE_BYTES,
    ServiceError,
    decode_message,
    encode_message,
    job_from_wire,
    job_to_wire,
)
from repro.service.server import CampaignService

JOB_A = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
JOB_B = EvalJob("dct", 4, 4, "CntAG", "decoders")
SMALL = Campaign("small", [JOB_A, JOB_B])


# ----------------------------------------------------------------- protocol
def test_encode_decode_round_trip():
    message = {"op": "jobs", "jobs": [job_to_wire(JOB_A)], "id": "r1"}
    line = encode_message(message)
    assert line.endswith(b"\n") and line.count(b"\n") == 1
    assert decode_message(line) == message


def test_encode_rejects_oversized_message():
    with pytest.raises(ServiceError, match="line limit"):
        encode_message({"blob": "x" * MAX_LINE_BYTES})


def test_decode_rejects_garbage():
    with pytest.raises(ServiceError, match="malformed"):
        decode_message(b"{nonsense\n")
    with pytest.raises(ServiceError, match="JSON object"):
        decode_message(b"[1, 2]\n")


def test_job_wire_round_trip_preserves_cache_key():
    for job in SMALL.jobs:
        rebuilt = job_from_wire(job_to_wire(job))
        assert rebuilt == job
        assert rebuilt.key == job.key


def test_job_from_wire_rejects_bad_shapes():
    with pytest.raises(ServiceError, match="missing field"):
        job_from_wire({"workload": "fifo"})
    with pytest.raises(ServiceError, match="bad job spec"):
        job_from_wire({**job_to_wire(JOB_A), "spec": {"no_such_knob": 1}})
    with pytest.raises(ServiceError, match="JSON object"):
        job_from_wire({**job_to_wire(JOB_A), "spec": [1]})


@pytest.mark.parametrize("interval", [0, -1.0])
def test_heartbeats_cannot_be_switched_off(interval):
    with pytest.raises(ValueError, match="heartbeat_interval must be > 0"):
        CampaignService(cache=ResultCache(None), heartbeat_interval=interval)


# ------------------------------------------------------------ test harness
@contextlib.contextmanager
def service_running(**kwargs):
    """Run a CampaignService on its own loop thread; yield (host, port)."""
    box = {}
    ready = threading.Event()

    def serve():
        async def main():
            service = CampaignService(**kwargs)
            box["addr"] = await service.start("127.0.0.1", 0)
            box["service"] = service
            box["loop"] = asyncio.get_running_loop()
            ready.set()
            await service.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=serve, name="test-service", daemon=True)
    thread.start()
    assert ready.wait(10.0), "service failed to start"
    try:
        yield box["addr"]
    finally:
        box["loop"].call_soon_threadsafe(box["service"].request_shutdown)
        thread.join(10.0)
        assert not thread.is_alive(), "service failed to drain"


def _client_run(addr, coro_factory):
    """Run one async client interaction against the service."""

    async def main():
        async with ServiceClient(*addr) as client:
            return await coro_factory(client)

    return asyncio.run(main())


def _normalized(record):
    data = record.to_dict()
    data["duration_s"] = 0.0
    return {
        key: (None if isinstance(value, float) and math.isnan(value) else value)
        for key, value in data.items()
    }


# --------------------------------------------------------------- round trip
def test_remote_campaign_matches_local_serial_run():
    local = CampaignRunner(ResultCache(None), workers=0).run(SMALL)
    with service_running(cache=ResultCache(None), workers=0) as addr:
        remote = run_campaign_remote(*addr, SMALL)
        assert remote.campaign == SMALL.name
        assert [
            _normalized(r) for r in remote.records
        ] == [_normalized(r) for r in local.records]
        assert remote.hits == 0
        # Second run is served entirely from the server-side cache.
        again = run_campaign_remote(*addr, SMALL)
        assert again.hits == len(SMALL.jobs)
        assert [_normalized(r) for r in again.records] == [
            _normalized(r) for r in local.records
        ]


def test_remote_progress_callback_counts_records():
    seen = []
    with service_running(cache=ResultCache(None), workers=0) as addr:
        run_campaign_remote(
            *addr,
            SMALL,
            progress=lambda record, done, total: seen.append(
                (record.key, done, total)
            ),
        )
    assert len(seen) == 2
    assert sorted(done for _, done, _ in seen) == [1, 2]
    assert all(total == 2 for _, _, total in seen)


def test_remote_records_carry_lint_and_verify_diagnostics(monkeypatch):
    """Fresh remote records keep the diagnostics the cached form drops."""
    real = runner_module.evaluate_job

    def with_finding(job):
        # The designs lint clean, so add one finding to show findings
        # travel as well as verdicts.
        record = real(job)
        record.lint_findings.append({"rule": "test.marker", "location": job.key})
        return record

    monkeypatch.setattr(runner_module, "evaluate_job", with_finding)
    spec = FlowSpec(lint=1, verify=1)
    campaign = Campaign("diagnosed", [replace(job, spec=spec) for job in SMALL.jobs])
    with service_running(cache=ResultCache(None), workers=0) as addr:
        remote = run_campaign_remote(*addr, campaign)
    assert remote.hits == 0
    for job, record in zip(campaign.jobs, remote.records):
        local = with_finding(job)
        assert record.verify_result is not None
        assert record.verify_result == local.verify_result
        assert record.lint_findings == local.lint_findings


@pytest.fixture
def counted_eval(monkeypatch):
    calls = []
    lock = threading.Lock()

    def fake(job):
        with lock:
            calls.append(job.key)
        time.sleep(0.02)
        return EvalRecord(
            workload=job.workload,
            rows=job.rows,
            cols=job.cols,
            style=job.style,
            variant=job.variant,
            library=job.spec.library,
            key=job.key,
            status="ok",
            delay_ns=1.0,
            area_cells=2.0,
        )

    monkeypatch.setattr(runner_module, "evaluate_job", fake)
    return calls


def test_remote_campaign_with_spec_override_matches_local_serial_run():
    """Flow overrides ride the wire in each job's spec, as ``--connect``
    ships them: the server evaluates exactly the overridden keys."""
    smoke = build_campaign("smoke")
    campaign = replace(
        smoke,
        jobs=[
            replace(job, spec=replace(job.spec, opt_level=1))
            for job in smoke.jobs
        ],
    )
    assert not {job.key for job in campaign.jobs} & {job.key for job in smoke.jobs}
    local = CampaignRunner(ResultCache(None), workers=0).run(campaign)
    with service_running(cache=ResultCache(None), workers=0) as addr:
        remote = run_campaign_remote(*addr, campaign)
    assert remote.hits == 0
    assert [r.key for r in remote.records] == [job.key for job in campaign.jobs]
    assert {r.key: _normalized(r) for r in remote.records} == {
        r.key: _normalized(r) for r in local.records
    }


def test_remote_campaign_hashes_each_job_once_per_side(monkeypatch):
    """At most one digest per job on the client, and per job per request on
    the server.  The client runs on the main thread, the service on its own."""
    want = [job.key for job in build_campaign("smoke").jobs]
    n = len(want)
    counts = {"client": 0, "server": 0}
    digest = jobs_module._spec_digest
    main = threading.main_thread()

    def counting(spec):
        counts["client" if threading.current_thread() is main else "server"] += 1
        return digest(spec)

    monkeypatch.setattr(jobs_module, "_spec_digest", counting)
    with service_running(cache=ResultCache(None), workers=0) as addr:
        for request in (1, 2):
            result = run_campaign_remote(*addr, build_campaign("smoke"))
            assert [record.key for record in result.records] == want
            assert result.hits == (0 if request == 1 else n)
            assert 0 < counts["client"] <= n * request
            assert 0 < counts["server"] <= n * request


def test_bad_requests_keep_the_connection_usable():
    with service_running(cache=ResultCache(None), workers=0) as addr:

        async def run(client):
            errors = []
            # Unknown op.
            await client._send({"op": "frobnicate"})
            errors.append(await client._recv())
            # Malformed line, straight onto the socket.
            client._writer.write(b"{nonsense\n")
            await client._writer.drain()
            errors.append(await client._recv())
            # The named-campaign op of protocol 1 is gone.
            await client._send({"op": "campaign", "campaign": "smoke"})
            errors.append(await client._recv())
            # Bad spec field on the jobs path.
            await client._send(
                {
                    "op": "jobs",
                    "jobs": [{**job_to_wire(JOB_A), "spec": {"bogus": 1}}],
                }
            )
            errors.append(await client._recv())
            # The connection survived all four.
            pong = await client.ping()
            return errors, pong

        errors, pong = _client_run(addr, run)
    assert all(event["event"] == "error" for event in errors)
    assert "unknown op" in errors[0]["error"]
    assert "malformed" in errors[1]["error"]
    assert "unknown op: 'campaign'" in errors[2]["error"]
    assert "bad job spec" in errors[3]["error"]
    assert pong["ok"] and pong["protocol"] == 3


def test_request_ids_are_echoed_on_every_event(counted_eval):
    with service_running(cache=ResultCache(None), workers=0) as addr:

        async def run(client):
            return await client.run_jobs(
                [job_to_wire(JOB_A)], request_id="req-42"
            )

        records, end = _client_run(addr, run)
    assert all(event["id"] == "req-42" for event in records)
    assert end["id"] == "req-42"
    assert end["accepted"]["id"] == "req-42"


# -------------------------------------------------------------- concurrency
def test_concurrent_clients_share_evaluations(counted_eval):
    """N clients asking for the same grid cause exactly one evaluation each."""
    clients = 4
    with service_running(cache=ResultCache(None), workers=0) as addr:
        results = [None] * clients
        failures = []

        def run_one(slot):
            try:
                results[slot] = run_campaign_remote(*addr, SMALL)
            except Exception as error:  # pragma: no cover - surfaced below
                failures.append(error)

        threads = [
            threading.Thread(target=run_one, args=(i,)) for i in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(30.0)
    assert not failures
    # Whether a client was deduped in-flight or served from cache, the
    # expensive work happened exactly once per unique job.
    assert len(counted_eval) == len(SMALL.jobs)
    reference = [_normalized(r) for r in results[0].records]
    for result in results[1:]:
        assert [_normalized(r) for r in result.records] == reference


def test_request_timeout_produces_error_event(monkeypatch):
    started = threading.Event()

    def slow(job):
        started.set()
        time.sleep(0.5)
        return EvalRecord(
            workload=job.workload,
            rows=job.rows,
            cols=job.cols,
            style=job.style,
            variant=job.variant,
            library=job.spec.library,
            key=job.key,
            status="ok",
        )

    monkeypatch.setattr(runner_module, "evaluate_job", slow)
    with service_running(cache=ResultCache(None), workers=0) as addr:

        async def main():
            # Client 1 owns the (slow) flight; client 2 joins the same key
            # with a tiny timeout and must get a timeout error event while
            # its connection stays usable.
            async with ServiceClient(*addr) as one, ServiceClient(*addr) as two:
                owner = asyncio.ensure_future(one.run_jobs([job_to_wire(JOB_A)]))
                await asyncio.to_thread(started.wait, 5.0)
                with pytest.raises(ServiceError, match="outstanding"):
                    await two.run_jobs([job_to_wire(JOB_A)], timeout=0.05)
                pong = await two.ping()
                records, end = await owner
                return pong, records, end

        pong, records, end = asyncio.run(main())
    assert pong["ok"]
    assert end["ok"] and len(records) == 1


# ----------------------------------------------------------------- shutdown
def test_shutdown_op_stops_the_server():
    box = {}
    ready = threading.Event()

    def serve():
        async def main():
            service = CampaignService(cache=ResultCache(None), workers=0)
            box["addr"] = await service.start("127.0.0.1", 0)
            ready.set()
            await service.serve_forever()

        asyncio.run(main())

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    assert ready.wait(10.0)

    async def run(client):
        await client.shutdown_server()

    _client_run(box["addr"], run)
    thread.join(10.0)
    assert not thread.is_alive()
