"""Service resilience: heartbeats, reconnect-resume, orphan cleanup, exit 3."""

import asyncio
import contextlib
import math
import socket
import threading
import time

import pytest

from repro.engine import runner as runner_module
from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign, EvalJob
from repro.engine.records import EvalRecord
from repro.engine.runner import CampaignRunner
from repro.obs import metrics
from repro.resilience.faults import FaultPlan, FaultRule, clear_plan, install_plan
from repro.resilience.retry import RetryPolicy
from repro.service.client import (
    ServiceClient,
    ServiceUnavailable,
    run_campaign_remote,
)
from repro.service.protocol import job_to_wire
from repro.service.server import CampaignService

JOBS = [
    EvalJob("fifo", 4, 4, "SRAG", "two-hot"),
    EvalJob("dct", 4, 4, "SRAG", "two-hot"),
    EvalJob("fifo", 8, 8, "SRAG", "two-hot"),
    EvalJob("dct", 8, 8, "CntAG", "decoders"),
]
CAMPAIGN = Campaign("chaos", JOBS)
RESUME_POLICY = RetryPolicy(max_retries=3, base_backoff_s=0.01)


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    yield
    clear_plan()


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

    thread = threading.Thread(target=serve, name="chaos-service", daemon=True)
    thread.start()
    assert ready.wait(10.0), "service failed to start"
    try:
        yield box["addr"]
    finally:
        box["loop"].call_soon_threadsafe(box["service"].request_shutdown)
        thread.join(10.0)
        assert not thread.is_alive(), "service failed to drain"


def _normalized(record):
    data = record.to_dict()
    data["duration_s"] = 0.0
    return {
        key: (None if isinstance(value, float) and math.isnan(value) else value)
        for key, value in data.items()
    }


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


def _await_counter(name, target, timeout=10.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if metrics.counter(name) >= target:
            return True
        time.sleep(0.02)
    return False


def _free_port():
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


# ---------------------------------------------------------------- heartbeats
def test_heartbeats_flow_during_quiet_evaluations(counted_eval):
    beats = metrics.counter("service.heartbeats")
    with service_running(
        cache=ResultCache(None), workers=0, heartbeat_interval=0.005
    ) as addr:

        async def run():
            async with ServiceClient(*addr) as client:
                await client._send({"op": "jobs", "jobs": [job_to_wire(JOBS[0])]})
                events = []
                while True:
                    event = await client._recv()
                    events.append(event)
                    if event.get("event") in ("end", "error"):
                        return events

        events = asyncio.run(run())
    kinds = [event["event"] for event in events]
    assert "heartbeat" in kinds  # the 20ms evaluation outlasted the interval
    beat = next(e for e in events if e["event"] == "heartbeat")
    assert beat["done"] == 0  # beats carry progress, not records
    assert kinds[-1] == "end"
    assert metrics.counter("service.heartbeats") > beats


def test_client_api_consumes_heartbeats_silently(counted_eval):
    with service_running(
        cache=ResultCache(None), workers=0, heartbeat_interval=0.005
    ) as addr:
        result = run_campaign_remote(*addr, Campaign("one", [JOBS[0]]))
    assert [r.status for r in result.records] == ["ok"]


# ---------------------------------------------------------- reconnect/resume
def test_connect_to_dead_server_raises_service_unavailable():
    port = _free_port()
    with pytest.raises(ServiceUnavailable, match="cannot connect"):
        run_campaign_remote("127.0.0.1", port, CAMPAIGN)


def test_connect_retries_under_a_policy_then_gives_up():
    port = _free_port()
    retries = metrics.counter("client.connect_retries")
    with pytest.raises(ServiceUnavailable, match="cannot connect"):
        run_campaign_remote(
            "127.0.0.1",
            port,
            CAMPAIGN,
            retry_policy=RetryPolicy(max_retries=2, base_backoff_s=0.01),
        )
    assert metrics.counter("client.connect_retries") == retries + 2


def test_mid_stream_disconnect_resumes_with_zero_duplicates(counted_eval):
    """The tentpole client invariant: a dropped stream is healed by
    reconnect-and-resume, costs zero duplicate evaluations, and yields
    records identical to a fault-free serial run."""
    reference = CampaignRunner(ResultCache(None), workers=0).run(CAMPAIGN)
    assert counted_eval == [job.key for job in JOBS]
    del counted_eval[:]

    # The client's 2nd stream read dies exactly like a snapped connection.
    install_plan(
        FaultPlan(
            [
                FaultRule(
                    site="client.stream",
                    exception="ConnectionResetError",
                    on_hits=(2,),
                )
            ]
        )
    )
    reconnects = metrics.counter("client.reconnects")
    with service_running(cache=ResultCache(None), workers=0) as addr:
        result = run_campaign_remote(
            *addr, CAMPAIGN, retry_policy=RESUME_POLICY
        )
        assert metrics.counter("client.reconnects") == reconnects + 1
        # No lost records, no duplicate evaluations, identical results.
        assert len(set(counted_eval)) == len(counted_eval)
        assert sorted(counted_eval) == sorted(job.key for job in JOBS)
        assert [_normalized(r) for r in result.records] == [
            _normalized(r) for r in reference.records
        ]


def test_disconnect_without_policy_raises(counted_eval):
    install_plan(
        FaultPlan(
            [
                FaultRule(
                    site="client.stream",
                    exception="ConnectionResetError",
                    on_hits=(2,),
                )
            ]
        )
    )
    with service_running(cache=ResultCache(None), workers=0) as addr:
        with pytest.raises(ServiceUnavailable, match="connection lost"):
            run_campaign_remote(*addr, CAMPAIGN)


# ------------------------------------------------------------ orphan cleanup
def test_vanished_client_orphan_is_cancelled_and_work_survives(counted_eval):
    """A client that dies mid-stream must not wedge the server: its
    submission is cancelled, completed records stay cached, and a second
    client finishes the campaign with no key evaluated twice."""
    orphans = metrics.counter("service.orphaned_submissions")
    with service_running(cache=ResultCache(None), workers=0) as addr:

        async def vanish():
            client = ServiceClient(*addr)
            await client.connect()
            await client._send(
                {"op": "jobs", "jobs": [job_to_wire(job) for job in JOBS]}
            )
            accepted = await client._recv()
            assert accepted["event"] == "accepted"
            await client._recv()  # one record lands...
            # ...then the client dies without so much as a FIN handshake.
            client._writer.transport.abort()

        asyncio.run(vanish())
        assert _await_counter(
            "service.orphaned_submissions", orphans + 1
        ), "server never noticed the vanished client"

        # The service is healthy; the retry completes the campaign.
        result = run_campaign_remote(*addr, CAMPAIGN)
    assert [r.status for r in result.records] == ["ok"] * len(JOBS)
    # Across both requests every key was evaluated at most once -- records
    # the orphan completed came back as cache hits, not re-evaluations.
    assert len(set(counted_eval)) == len(counted_eval)
    assert sorted(set(counted_eval)) == sorted(job.key for job in JOBS)


def test_wedged_handler_write_is_treated_as_a_lost_client(counted_eval):
    """Server-side chaos: a write that blows up OSError-style mid-stream
    triggers the same orphan cleanup as a vanished client."""
    install_plan(
        FaultPlan(
            [FaultRule(site="service.write", exception="OSError", on_hits=(2,))]
        )
    )
    orphans = metrics.counter("service.orphaned_submissions")
    with service_running(cache=ResultCache(None), workers=0) as addr:

        async def run():
            async with ServiceClient(*addr) as client:
                await client._send(
                    {"op": "jobs", "jobs": [job_to_wire(job) for job in JOBS]}
                )
                accepted = await client._recv()
                assert accepted["event"] == "accepted"
                # The stream just stops (the server thinks we vanished);
                # prove the connection itself still answers pings.
                return await client.ping()

        pong = asyncio.run(run())
        assert _await_counter("service.orphaned_submissions", orphans + 1)
        assert pong["ok"]


# ------------------------------------------------------------------ CLI exit
def test_cli_connect_exits_3_with_one_actionable_line(capsys):
    from repro.cli import main

    port = _free_port()
    code = main(["--campaign", "smoke", "--connect", f"127.0.0.1:{port}", "--quiet"])
    assert code == 3
    err = capsys.readouterr().err
    lines = [line for line in err.splitlines() if "unavailable" in line]
    assert len(lines) == 1
    assert "sradgen: campaign service unavailable" in lines[0]
    assert f"is `sradgen --serve` running on 127.0.0.1:{port}?" in lines[0]
    assert "Traceback" not in err


def test_cli_connect_retry_flags_arm_the_client_policy(capsys):
    from repro.cli import main

    port = _free_port()
    retries = metrics.counter("client.connect_retries")
    code = main(
        [
            "--campaign",
            "smoke",
            "--connect",
            f"127.0.0.1:{port}",
            "--retry-max",
            "2",
            "--quiet",
        ]
    )
    assert code == 3
    assert metrics.counter("client.connect_retries") == retries + 2
