"""Scheduler self-healing: transient retries, pool rebuild, serial degrade."""

import asyncio
import concurrent.futures
import os
import signal
import threading

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.engine import runner as runner_module
from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob
from repro.engine.records import EvalRecord
from repro.engine.scheduler import Scheduler
from repro.obs import metrics
from repro.resilience.faults import FaultPlan, FaultRule, clear_plan, install_plan
from repro.resilience.retry import RetryPolicy

JOBS = [
    EvalJob("fifo", 4, 4, "SRAG", "two-hot"),
    EvalJob("dct", 4, 4, "SRAG", "two-hot"),
    EvalJob("fifo", 8, 8, "SRAG", "two-hot"),
    EvalJob("dct", 8, 8, "CntAG", "decoders"),
]

FAST_RETRY = RetryPolicy(max_retries=2, base_backoff_s=0.005)


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    yield
    clear_plan()


def _record(job, status="ok", note=""):
    return EvalRecord(
        workload=job.workload,
        rows=job.rows,
        cols=job.cols,
        style=job.style,
        variant=job.variant,
        library=job.spec.library,
        key=job.key,
        status=status,
        note=note,
        delay_ns=1.0,
        area_cells=2.0,
    )


@pytest.fixture
def flaky_eval(monkeypatch):
    """evaluate_job stand-in whose first N calls per key fail transiently."""
    state = {"calls": [], "fail_first": 0, "lock": threading.Lock()}

    def fake(job):
        with state["lock"]:
            state["calls"].append(job.key)
            failures = state["calls"].count(job.key) - 1
        if failures < state["fail_first"]:
            return _record(job, status="error", note="transient chaos")
        return _record(job)

    monkeypatch.setattr(runner_module, "evaluate_job", fake)
    return state


# ------------------------------------------------------------- job retries
def test_transient_error_is_retried_to_success(flaky_eval):
    flaky_eval["fail_first"] = 2
    before = metrics.counter("scheduler.retries")
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    records = list(scheduler.submit([JOBS[0]]).results(timeout=10.0))
    assert [r.status for r in records] == ["ok"]
    assert flaky_eval["calls"].count(JOBS[0].key) == 3  # 1 try + 2 retries
    assert metrics.counter("scheduler.retries") == before + 2
    assert scheduler.cache.get(JOBS[0].key) is not None  # final record cached


def test_retry_budget_exhaustion_surfaces_the_error(flaky_eval):
    flaky_eval["fail_first"] = 99
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    records = list(scheduler.submit([JOBS[0]]).results(timeout=10.0))
    assert [r.status for r in records] == ["error"]
    assert flaky_eval["calls"].count(JOBS[0].key) == 3  # budget, then give up
    assert scheduler.cache.get(JOBS[0].key) is None  # errors stay uncached
    # The attempt ledger is clean: a fresh submission starts from scratch.
    assert scheduler._attempts == {}


def test_no_policy_means_the_historical_single_attempt(flaky_eval):
    flaky_eval["fail_first"] = 1
    scheduler = Scheduler(ResultCache(None), workers=0)
    records = list(scheduler.submit([JOBS[0]]).results(timeout=10.0))
    assert [r.status for r in records] == ["error"]
    assert flaky_eval["calls"] == [JOBS[0].key]


def test_deterministic_failures_are_never_retried(monkeypatch):
    calls = []

    def fake(job):
        calls.append(job.key)
        return _record(job, status="skipped", note="no mapping for geometry")

    monkeypatch.setattr(runner_module, "evaluate_job", fake)
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    records = list(scheduler.submit([JOBS[0]]).results(timeout=10.0))
    assert [r.status for r in records] == ["skipped"]
    assert len(calls) == 1


def test_joined_submission_receives_the_retried_record(flaky_eval):
    flaky_eval["fail_first"] = 1
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    owner = scheduler.submit([JOBS[0]])
    joined = scheduler.submit([JOBS[0]])
    joined_records = []
    consumer = threading.Thread(
        target=lambda: joined_records.extend(joined.results(timeout=10.0))
    )
    consumer.start()
    owner_records = list(owner.results(timeout=10.0))
    consumer.join(10.0)
    assert not consumer.is_alive()
    assert [r.status for r in owner_records] == ["ok"]
    assert [r.status for r in joined_records] == ["ok"]
    assert flaky_eval["calls"].count(JOBS[0].key) == 2  # shared retry, not two


def test_cancelled_submissions_synthetic_records_bypass_retry(flaky_eval):
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    owner = scheduler.submit([JOBS[0]])
    joined = scheduler.submit([JOBS[0]])
    owner.cancel()
    records = list(joined.results(timeout=5.0))
    assert [r.status for r in records] == ["error"]
    assert "cancelled" in records[0].note
    assert flaky_eval["calls"] == []  # never evaluated, never retried


def test_cancel_wakes_a_blocked_consumer(flaky_eval):
    """The _WAKE sentinel: cancel() must unblock results() immediately."""
    scheduler = Scheduler(ResultCache(None), workers=0, retry_policy=FAST_RETRY)
    owner = scheduler.submit([JOBS[0]])  # never driven
    joined = scheduler.submit([JOBS[0]])
    drained = threading.Event()
    consumer = threading.Thread(
        target=lambda: (list(joined.results()), drained.set())
    )
    consumer.start()
    joined.cancel()
    assert drained.wait(5.0), "cancel() left the consumer wedged in get()"
    consumer.join(5.0)


# ------------------------------------------------------------- pool rebuild
class _InlinePool:
    """Pool stand-in: fails the first ``fail`` futures, then runs inline."""

    def __init__(self, fail=0):
        self.fail = fail
        self.shutdowns = 0

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        if self.fail > 0:
            self.fail -= 1
            future.set_exception(BrokenProcessPool("simulated worker crash"))
        else:
            future.set_result(fn(*args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns += 1


def _install_pools(scheduler, pools):
    """Serve scheduler._get_pool from a scripted list of _InlinePools."""
    handed = []

    def fake_get_pool():
        if scheduler._pool is None:
            scheduler._pool = pools[min(len(handed), len(pools) - 1)]
            handed.append(scheduler._pool)
        return scheduler._pool

    scheduler._get_pool = fake_get_pool
    return handed


def test_broken_pool_is_rebuilt_and_jobs_requeued(flaky_eval):
    rebuilds = metrics.counter("scheduler.pool_rebuilds")
    requeued = metrics.counter("scheduler.jobs_requeued")
    scheduler = Scheduler(ResultCache(None), workers=2, rebuild_budget=2)
    handed = _install_pools(scheduler, [_InlinePool(fail=1), _InlinePool()])
    records = list(scheduler.submit(JOBS[:2]).results(timeout=10.0))
    assert sorted(r.key for r in records) == sorted(j.key for j in JOBS[:2])
    assert all(r.status == "ok" for r in records)
    # The doomed batch never ran: each job was evaluated exactly once.
    assert sorted(flaky_eval["calls"]) == sorted(j.key for j in JOBS[:2])
    assert metrics.counter("scheduler.pool_rebuilds") == rebuilds + 1
    assert metrics.counter("scheduler.jobs_requeued") == requeued + 1
    assert len(handed) == 2 and handed[0].shutdowns >= 1
    assert not scheduler._serial_only  # healed, not degraded


def test_rebuild_budget_exhaustion_degrades_to_serial(flaky_eval):
    scheduler = Scheduler(ResultCache(None), workers=2, rebuild_budget=0)
    _install_pools(scheduler, [_InlinePool(fail=99)])
    records = list(scheduler.submit(JOBS[:2]).results(timeout=10.0))
    assert all(r.status == "ok" for r in records)
    assert sorted(flaky_eval["calls"]) == sorted(j.key for j in JOBS[:2])
    assert scheduler._serial_only
    # Later submissions skip the pool entirely and still complete.
    more = list(scheduler.submit(JOBS[2:]).results(timeout=10.0))
    assert all(r.status == "ok" for r in more)
    assert sorted(flaky_eval["calls"]) == sorted(j.key for j in JOBS)


def test_requeue_skips_jobs_whose_records_already_landed(flaky_eval):
    """A batch whose records all landed is not re-enqueued on rebuild."""
    scheduler = Scheduler(ResultCache(None), workers=2, rebuild_budget=2)
    _install_pools(scheduler, [_InlinePool(), _InlinePool()])
    records = list(scheduler.submit(JOBS[:2]).results(timeout=10.0))
    assert all(r.status == "ok" for r in records)
    calls_before = list(flaky_eval["calls"])
    # Simulate a straggler future from the old generation failing after
    # every record landed: nothing is in-flight, so nothing is requeued.
    assert scheduler._handle_broken_pool(
        JOBS[:2], scheduler._pool_generation, BrokenProcessPool("late")
    )
    assert flaky_eval["calls"] == calls_before


# ----------------------------------------------------- real worker crashes
def test_worker_crash_chaos_completes_without_duplicates():
    """End-to-end kill -9 chaos: every forked worker dies on its first
    batch (the plan is inherited across fork), so every pool generation
    breaks; the scheduler burns its rebuild budget, degrades to serial, and
    still delivers exactly one record per key."""
    try:
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        pool.submit(abs, 1).result(timeout=30)
        pool.shutdown()
    except Exception:  # pragma: no cover - platform dependent
        pytest.skip("process pools unavailable in this environment")

    install_plan(FaultPlan([FaultRule(site="scheduler.worker", action="exit")]))
    rebuilds = metrics.counter("scheduler.pool_rebuilds")
    cache = ResultCache(None)
    with Scheduler(cache, workers=2, rebuild_budget=1) as scheduler:
        records = list(scheduler.submit(JOBS).results(timeout=120.0))
    clear_plan()
    assert sorted(r.key for r in records) == sorted(j.key for j in JOBS)
    statuses = {r.status for r in records}
    assert statuses <= {"ok", "skipped"}, statuses  # real records, no errors
    assert metrics.counter("scheduler.pool_rebuilds") == rebuilds + 1
    assert scheduler._serial_only
    for record in records:
        if record.status == "ok":
            assert cache.get(record.key) is not None


def test_worker_directed_signals_stay_in_the_worker():
    """Fork-started workers inherit the asyncio parent's signal wakeup pipe,
    so the SIGTERM a breaking pool sends its surviving workers used to be
    replayed as the *parent's* own signal -- gracefully shutting the
    campaign service down mid-rebuild.  _warm_worker must detach the
    inherited plumbing: a signal delivered to a worker pid stays there."""
    try:
        probe = concurrent.futures.ProcessPoolExecutor(max_workers=1)
        probe.submit(abs, 1).result(timeout=30)
        probe.shutdown()
    except Exception:  # pragma: no cover - platform dependent
        pytest.skip("process pools unavailable in this environment")

    from repro.engine.runner import _warm_worker

    async def scenario():
        loop = asyncio.get_running_loop()
        seen = asyncio.Event()
        loop.add_signal_handler(signal.SIGTERM, seen.set)
        pool = concurrent.futures.ProcessPoolExecutor(
            max_workers=1, initializer=_warm_worker
        )
        try:
            await loop.run_in_executor(pool, abs, 1)  # initializer has run
            worker_pid = next(iter(pool._processes))
            os.kill(worker_pid, signal.SIGTERM)
            with pytest.raises(asyncio.TimeoutError):
                await asyncio.wait_for(seen.wait(), timeout=1.0)
        finally:
            loop.remove_signal_handler(signal.SIGTERM)
            pool.shutdown(wait=False, cancel_futures=True)

    asyncio.run(scenario())
