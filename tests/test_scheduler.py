"""Scheduler core: cross-request dedup, streaming, lifecycle, sharing."""

import threading

import pytest

from repro.engine import runner as runner_module
from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob
from repro.engine.records import EvalRecord
from repro.engine.runner import CampaignRunner
from repro.engine.scheduler import Scheduler, SchedulerTimeout
from repro.obs import metrics

JOB_A = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
JOB_B = EvalJob("dct", 4, 4, "SRAG", "two-hot")


def _record(job, status="ok"):
    return EvalRecord(
        workload=job.workload,
        rows=job.rows,
        cols=job.cols,
        style=job.style,
        variant=job.variant,
        library=job.spec.library,
        key=job.key,
        status=status,
        delay_ns=1.0,
        area_cells=2.0,
    )


@pytest.fixture
def counted_eval(monkeypatch):
    """Replace real evaluation with an instant fake; returns the call log."""
    calls = []

    def fake(job):
        calls.append(job.key)
        return _record(job)

    monkeypatch.setattr(runner_module, "evaluate_job", fake)
    return calls


# ---------------------------------------------------------- worker counts
def _scheduler_of(owner, workers):
    """The scheduler behind each public constructor that takes ``workers``."""
    from repro.service.server import CampaignService

    if owner == "runner":
        return CampaignRunner(ResultCache(None), workers=workers).scheduler
    if owner == "service":
        return CampaignService(cache=ResultCache(None), workers=workers)._scheduler
    return Scheduler(ResultCache(None), workers=workers)


@pytest.mark.parametrize("owner", ["scheduler", "runner", "service"])
def test_negative_worker_count_raises_and_zero_is_serial(owner, counted_eval):
    with pytest.raises(ValueError, match="workers must be >= 0, got -3"):
        _scheduler_of(owner, -3)
    with _scheduler_of(owner, 0) as scheduler:
        records = list(scheduler.submit([JOB_A, JOB_B]).results())
        assert scheduler.workers == 0 and scheduler._pool is None
    assert len(records) == 2 and len(counted_eval) == 2


# ------------------------------------------------------------------- dedup
def test_two_identical_submissions_share_one_evaluation(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    first = scheduler.submit([JOB_A])
    dedup_before = metrics.counter("scheduler.dedup_hits")
    second = scheduler.submit([JOB_A])

    assert first.pending == 1 and first.deduped == 0
    assert second.pending == 0 and second.deduped == 1
    assert metrics.counter("scheduler.dedup_hits") == dedup_before + 1

    # The joined submission blocks until the owner drives the evaluation.
    joined_records = []
    joined = threading.Thread(
        target=lambda: joined_records.extend(second.results(timeout=10.0))
    )
    joined.start()
    owner_records = list(first.results(timeout=10.0))
    joined.join(10.0)
    assert not joined.is_alive()

    assert counted_eval == [JOB_A.key]  # exactly one evaluation...
    assert [r.key for r in owner_records] == [JOB_A.key]  # ...two results
    assert [r.key for r in joined_records] == [JOB_A.key]
    assert scheduler.cache.get(JOB_A.key) is not None


def test_duplicate_keys_within_one_submission_collapse(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    submission = scheduler.submit([JOB_A, JOB_A, JOB_B])
    assert submission.expected == 2
    assert submission.pending == 2
    records = list(submission.results(timeout=10.0))
    assert sorted(r.key for r in records) == sorted([JOB_A.key, JOB_B.key])
    assert len(counted_eval) == 2


def test_cached_records_stream_first_in_submission_order(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    list(scheduler.submit([JOB_A]).results(timeout=10.0))
    assert len(counted_eval) == 1

    submission = scheduler.submit([JOB_B, JOB_A])
    assert submission.cached_keys == [JOB_A.key]
    records = list(submission.results(timeout=10.0))
    assert [r.key for r in records] == [JOB_A.key, JOB_B.key]
    assert records[0].cached and not records[1].cached
    assert len(counted_eval) == 2  # JOB_A was not re-evaluated


def test_force_re_evaluates_cached_keys(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    list(scheduler.submit([JOB_A]).results(timeout=10.0))
    forced = scheduler.submit([JOB_A], force=True)
    assert forced.pending == 1 and forced.cached_keys == []
    list(forced.results(timeout=10.0))
    assert counted_eval == [JOB_A.key, JOB_A.key]


def test_evaluations_counter_tracks_fresh_work_only(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    before = metrics.counter("scheduler.evaluations")
    list(scheduler.submit([JOB_A, JOB_B]).results(timeout=10.0))
    list(scheduler.submit([JOB_A, JOB_B]).results(timeout=10.0))  # all cached
    assert metrics.counter("scheduler.evaluations") == before + 2


# --------------------------------------------------------------- streaming
def test_results_timeout_raises_scheduler_timeout(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    owner = scheduler.submit([JOB_A])  # owns the flight, never drives it
    joined = scheduler.submit([JOB_A])
    with pytest.raises(SchedulerTimeout, match="1 record\\(s\\) outstanding"):
        list(joined.results(timeout=0.05))
    assert owner.pending == 1  # the owner is untouched


def test_cancel_resolves_joined_submissions_with_error_records(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    owner = scheduler.submit([JOB_A])
    joined = scheduler.submit([JOB_A])
    owner.cancel()
    records = list(joined.results(timeout=5.0))
    assert [r.status for r in records] == ["error"]
    assert "cancelled" in records[0].note
    assert counted_eval == []  # never evaluated...
    assert scheduler.cache.get(JOB_A.key) is None  # ...and never cached
    # The key is free again: a new submission owns and evaluates it.
    retry = scheduler.submit([JOB_A])
    assert retry.pending == 1
    assert [r.status for r in retry.results(timeout=10.0)] == ["ok"]


# ----------------------------------------------------------------- sharing
def test_submissions_share_scheduler_cache_and_dedup(counted_eval):
    scheduler = Scheduler(ResultCache(None), workers=0)
    first = scheduler.submit([JOB_A, JOB_B])
    assert first.pending == 2 and first.cached_keys == []
    assert [r.status for r in first.results(timeout=10.0)] == ["ok", "ok"]
    second = scheduler.submit([JOB_A, JOB_B])
    assert second.pending == 0 and second.cached_keys == [JOB_A.key, JOB_B.key]
    assert len(list(second.results(timeout=10.0))) == 2
    assert len(counted_eval) == 2


# --------------------------------------------------------------- lifecycle
class _FakePool:
    def __init__(self):
        self.shutdowns = []

    def shutdown(self, wait=True, cancel_futures=False):
        self.shutdowns.append((wait, cancel_futures))


def test_del_without_close_emits_resource_warning():
    runner = CampaignRunner(ResultCache(None), workers=4)
    pool = _FakePool()
    runner.scheduler._pool = pool
    with pytest.warns(ResourceWarning, match="unclosed CampaignRunner"):
        runner.__del__()
    assert pool.shutdowns  # the pool was still released


def test_del_after_close_is_quiet(recwarn):
    runner = CampaignRunner(ResultCache(None), workers=4)
    runner.scheduler._pool = _FakePool()
    runner.close()
    runner.close()  # idempotent
    runner.__del__()
    assert not any(
        isinstance(warning.message, ResourceWarning) for warning in recwarn.list
    )


def test_context_exit_is_quiet(recwarn):
    with CampaignRunner(ResultCache(None), workers=4) as runner:
        runner.scheduler._pool = _FakePool()
    runner.__del__()
    assert not any(
        isinstance(warning.message, ResourceWarning) for warning in recwarn.list
    )


def test_scheduler_del_without_close_emits_resource_warning():
    scheduler = Scheduler(ResultCache(None), workers=4)
    scheduler._pool = _FakePool()
    with pytest.warns(ResourceWarning, match="unclosed Scheduler"):
        scheduler.__del__()
