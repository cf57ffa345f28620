"""Scheduler: the shared dispatch core behind the runner and the service.

PRs 1-5 grew one synchronous :class:`~repro.engine.runner.CampaignRunner`
that owned the process pool, the chunking heuristic and the per-future error
policy.  This module extracts that machinery into a reusable
:class:`Scheduler` that any number of clients -- the synchronous runner, the
asyncio campaign service, several threads of either -- drive concurrently:

* **submit/stream API keyed by content hash.**  :meth:`Scheduler.submit`
  takes a batch of :class:`~repro.engine.jobs.EvalJob` and returns a
  :class:`Submission` whose :meth:`Submission.results` generator streams
  :class:`~repro.engine.records.EvalRecord` back in completion order
  (cache-served records first, in submission order).
* **Cross-request dedup.**  Jobs are identified by ``EvalJob.key``.  A key
  already being evaluated for another client is *joined*, not re-evaluated:
  both submissions receive the one record when it lands
  (``scheduler.dedup_hits`` counts the joins).  Keys already in the result
  cache are answered immediately.
* **One warmed pool, shared.**  The scheduler owns the persistent
  ``ProcessPoolExecutor`` (created and warmed on first use), the
  batches-per-worker chunking heuristic, and the error policy the runner
  established: a raising batch future is re-evaluated in-process so healthy
  jobs still get real records, and a broken/unavailable pool degrades to
  serial evaluation instead of failing the campaign.

Completed non-error records are written to the scheduler's
:class:`~repro.engine.cache.ResultCache` *before* the in-flight entry is
retired, so a concurrently arriving request can never miss both and
re-evaluate.  Error records stay uncached (transient failures must not
replay forever) -- the policy :class:`CampaignRunner` has always had.

Self-healing (PR 10) extends that error policy from "don't cache failures"
to "recover from them":

* a broken process pool is **rebuilt** (fresh warmed pool, one rebuild per
  pool generation, ``scheduler.pool_rebuilds``) and the doomed batches'
  still-in-flight jobs are re-enqueued on it -- never re-evaluating a job
  whose record already landed.  Only after ``rebuild_budget`` rebuilds does
  the scheduler degrade to serial in-process evaluation for good.
* an optional :class:`~repro.resilience.retry.RetryPolicy` re-runs jobs
  whose records came back transient (``status == "error"``), after the
  policy's deterministic backoff, bounded by its attempt budget
  (``scheduler.retries``).  Deterministic failures (SKIPPED) are never
  retried, and synthetic cancellation records bypass retry entirely.
"""

from __future__ import annotations

import concurrent.futures
import os
import queue
import threading
import time
from typing import Dict, Iterable, Iterator, List, Optional, Set

try:  # the process submodule is missing on platforms without multiprocessing
    from concurrent.futures.process import BrokenProcessPool
except ImportError:  # pragma: no cover - environment dependent
    class BrokenProcessPool(Exception):
        """Placeholder; never raised when process pools are unavailable."""

from repro.engine import runner as _runner
from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob
from repro.engine.records import ERROR, EvalRecord
from repro.engine.runner import _warm_worker, warn_unclosed
from repro.obs import get_tracer, log, metrics, span, tracing_enabled
from repro.resilience.faults import fault_point
from repro.resilience.retry import RetryPolicy

__all__ = ["Scheduler", "SchedulerTimeout", "Submission"]

#: Queue sentinel :meth:`Submission.cancel` uses to wake a consumer blocked
#: in ``queue.get`` so cancellation cannot leave a reader wedged forever.
_WAKE = object()


class SchedulerTimeout(TimeoutError):
    """Raised by :meth:`Submission.results` when the deadline expires."""


class _Flight:
    """One in-flight evaluation of a unique job key."""

    __slots__ = ("job", "subscribers")

    def __init__(self, job: EvalJob):
        self.job = job
        self.subscribers: List["Submission"] = []


class Submission:
    """A batch of jobs handed to the scheduler; iterate it for records.

    Attributes
    ----------
    expected:
        Unique job keys in the submission (duplicates within one submission
        produce one record).
    cached_keys:
        Keys answered from the result cache at submit time (their records
        are streamed first, in submission order).
    pending:
        Unique jobs this submission *owns*: evaluations it started.
    deduped:
        Unique jobs joined onto another submission's in-flight evaluation.
    """

    def __init__(self, scheduler: "Scheduler"):
        self._scheduler = scheduler
        self._queue: "queue.SimpleQueue[EvalRecord]" = queue.SimpleQueue()
        self._keys: Set[str] = set()
        self._serial: List[EvalJob] = []
        self._cancelled = False
        self.expected = 0
        self.cached_keys: List[str] = []
        self.pending = 0
        self.deduped = 0

    # ---------------------------------------------------------- consumption
    def results(self, *, timeout: Optional[float] = None) -> Iterator[EvalRecord]:
        """Yield one record per unique key, as each becomes available.

        Cache-served records come first (submission order), then fresh ones
        in completion order.  When the scheduler fell back to serial
        evaluation (no usable process pool), the jobs this submission owns
        are evaluated *by the consuming thread* between queue drains, so
        iteration still streams and still feeds any joined submissions.

        ``timeout`` bounds the whole iteration; expiry raises
        :class:`SchedulerTimeout`.  The generator is single-use.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        delivered = 0
        while delivered < self.expected and not self._cancelled:
            try:
                record = self._queue.get_nowait()
            except queue.Empty:
                if self._serial:
                    self._scheduler._evaluate_serial(self._serial.pop(0))
                    continue
                remaining: Optional[float] = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        raise SchedulerTimeout(
                            f"submission timed out after {timeout}s with "
                            f"{self.expected - delivered} record(s) outstanding"
                        )
                try:
                    record = self._queue.get(timeout=remaining)
                except queue.Empty:
                    raise SchedulerTimeout(
                        f"submission timed out after {timeout}s with "
                        f"{self.expected - delivered} record(s) outstanding"
                    ) from None
            if record is _WAKE:
                continue  # cancel() woke us; the loop re-checks _cancelled
            delivered += 1
            yield record

    def __iter__(self) -> Iterator[EvalRecord]:
        return self.results()

    def cancel(self) -> None:
        """Abandon the submission.

        Unsubscribes from every still-pending flight.  Owned jobs that were
        queued for *serial* evaluation and never started are resolved with
        transient error records so submissions that joined them do not wait
        forever; owned jobs already dispatched to the pool complete (and
        are cached) normally.
        """
        self._cancelled = True
        abandoned, self._serial = self._serial, []
        self._scheduler._abandon(self, abandoned)
        self._queue.put(_WAKE)  # unblock a consumer waiting in results()

    # ------------------------------------------------------------- delivery
    def _deliver(self, record: EvalRecord) -> None:
        self._queue.put(record)


class Scheduler:
    """Owns the evaluation pipeline: cache, dedup table, warmed process pool.

    Parameters
    ----------
    cache:
        Result store consulted and populated for every submission; defaults
        to a fresh in-memory cache (no persistence).
    workers:
        Worker process count.  ``None`` picks ``min(cpu_count, 8)``;
        ``0``/``1`` evaluates serially in the consuming thread; a negative
        count raises ``ValueError``.
    retry_policy:
        When set, jobs whose records come back transient (``error``) are
        re-evaluated after the policy's deterministic backoff, up to its
        attempt budget.  ``None`` (the default) keeps the historical
        single-attempt behaviour.
    rebuild_budget:
        How many times a broken process pool is rebuilt (with its doomed
        in-flight jobs re-enqueued) before the scheduler degrades to serial
        in-process evaluation for the rest of its life.  Every product path
        uses the default of 2; the chaos tests set 0 and 1 to reach the
        exhausted-budget path.

    One scheduler may serve any number of concurrent clients; submissions
    from different threads share the pool, the cache and the in-flight
    dedup table.  Use it as a context manager -- or call :meth:`close` --
    to shut the pool down deterministically.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        workers: Optional[int] = None,
        retry_policy: Optional[RetryPolicy] = None,
        rebuild_budget: int = 2,
    ):
        self.cache = cache if cache is not None else ResultCache()
        if workers is None:
            workers = min(os.cpu_count() or 1, 8)
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = workers
        self.retry_policy = retry_policy
        if rebuild_budget < 0:
            raise ValueError(f"rebuild_budget must be >= 0, got {rebuild_budget}")
        self.rebuild_budget = rebuild_budget
        self._pool: Optional[concurrent.futures.ProcessPoolExecutor] = None
        self._pool_generation = 0
        self._rebuilds_used = 0
        self._serial_only = False
        self._lock = threading.Lock()
        self._inflight: Dict[str, _Flight] = {}
        self._attempts: Dict[str, int] = {}

    # ---------------------------------------------------------------- pool
    def _get_pool(self) -> concurrent.futures.ProcessPoolExecutor:
        """The persistent worker pool, created (and warmed) on first use."""
        if self._pool is None:
            self._pool = concurrent.futures.ProcessPoolExecutor(
                max_workers=self.workers, initializer=_warm_worker
            )
        return self._pool

    def _handle_broken_pool(
        self,
        batch: List[EvalJob],
        generation: int,
        error: BaseException,
    ) -> bool:
        """Self-heal a pool-level failure; return whether the batch was saved.

        The first doomed future of a pool generation retires the broken
        pool and (budget permitting) builds its replacement; later doomed
        futures from the same generation just ride the fresh pool.  Each
        future re-enqueues only its batch's jobs that are *still* in the
        in-flight table -- a job whose record already landed is never
        evaluated twice.  Returns ``False`` when the rebuild budget is
        spent (the caller falls back to in-process evaluation).
        """
        with self._lock:
            jobs = [job for job in batch if job.key in self._inflight]
            if generation == self._pool_generation:
                # First doomed future of this generation: retire the pool.
                # No cancel_futures -- a broken pool's pending futures are
                # already failed, and each recovers its own batch here.
                if self._pool is not None:
                    self._pool.shutdown(wait=False)
                    self._pool = None
                if self._rebuilds_used >= self.rebuild_budget:
                    self._serial_only = True
                    log.warning(
                        "pool rebuild budget exhausted; degrading to serial",
                        component="scheduler",
                        budget=self.rebuild_budget,
                        error=str(error),
                    )
                    return False
                self._rebuilds_used += 1
                self._pool_generation += 1
                metrics.incr("scheduler.pool_rebuilds")
                log.warning(
                    "rebuilding broken process pool",
                    component="scheduler",
                    generation=self._pool_generation,
                    rebuilds_used=self._rebuilds_used,
                    error=str(error),
                )
            elif self._serial_only:
                return False
            if not jobs:
                return True  # every record already landed; nothing to redo
            try:
                pool = self._get_pool()
                future = pool.submit(
                    _runner._evaluate_batch, jobs, tracing_enabled()
                )
                generation = self._pool_generation
            except Exception:  # pool construction/submit itself failed
                self._serial_only = True
                return False
        metrics.incr("scheduler.jobs_requeued", len(jobs))
        future.add_done_callback(
            lambda f, b=jobs, g=generation: self._on_batch_done(f, b, g)
        )
        return True

    def _discard_pool(self) -> None:
        # getattr: __del__ may run on a half-constructed scheduler whose
        # __init__ raised before _pool was assigned.
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            self._pool = None

    def close(self) -> None:
        """Shut down the persistent worker pool (idempotent).

        Batches already queued on the pool are cancelled; their flights are
        resolved with transient error records so no subscriber hangs.  The
        scheduler stays usable -- a later submission simply starts a fresh
        pool (or runs serially).
        """
        self._discard_pool()

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        if getattr(self, "_pool", None) is not None:
            warn_unclosed(self)
        self._discard_pool()

    def _chunked(self, jobs: List[EvalJob]) -> List[List[EvalJob]]:
        """Split pending jobs into per-submission batches.

        ~4 batches per worker: large enough to amortise pickling and
        future bookkeeping, small enough to keep every worker busy even
        when job durations are skewed.
        """
        size = max(1, len(jobs) // (4 * max(1, self.workers)))
        return [jobs[i:i + size] for i in range(0, len(jobs), size)]

    # -------------------------------------------------------------- submit
    def submit(
        self, jobs: Iterable[EvalJob], *, force: bool = False
    ) -> Submission:
        """Register ``jobs`` and start evaluating whatever is genuinely new.

        Per unique key, in order: a cache hit is answered immediately
        (skipped under ``force``); a key another submission is already
        evaluating is joined (one evaluation, many results); everything
        else is owned by this submission and dispatched.  Returns the
        :class:`Submission` to iterate for records.
        """
        fault_point("scheduler.submit")
        submission = Submission(self)
        owned: List[EvalJob] = []
        with span("scheduler.submit"):
            with self._lock:
                for job in jobs:
                    key = job.key
                    if key in submission._keys:
                        continue  # duplicate within the submission
                    submission._keys.add(key)
                    if not force:
                        cached = self.cache.get(key)
                        if cached is not None:
                            submission.cached_keys.append(key)
                            submission._deliver(
                                EvalRecord.from_dict(cached, cached=True)
                            )
                            continue
                    flight = self._inflight.get(key)
                    if flight is not None:
                        flight.subscribers.append(submission)
                        submission.deduped += 1
                        metrics.incr("scheduler.dedup_hits")
                        continue
                    flight = _Flight(job)
                    flight.subscribers.append(submission)
                    self._inflight[key] = flight
                    owned.append(job)
                submission.expected = len(submission._keys)
                submission.pending = len(owned)
                metrics.incr("scheduler.submissions")
                metrics.gauge("scheduler.inflight", len(self._inflight))
            self._dispatch(owned, submission)
        return submission

    # ------------------------------------------------------------ dispatch
    def _dispatch(self, jobs: List[EvalJob], submission: Submission) -> None:
        if not jobs:
            return
        if self.workers > 1 and len(jobs) > 1 and not self._serial_only:
            dispatched = 0
            try:
                with self._lock:
                    pool = self._get_pool()
                    generation = self._pool_generation
                batches = self._chunked(jobs)
                # Whether workers should trace is decided once at dispatch:
                # each batch runs under its own worker-side tracer and ships
                # the span trees back for re-parenting.
                trace_workers = tracing_enabled()
                for batch in batches:
                    fault_point("scheduler.dispatch")
                    future = pool.submit(_runner._evaluate_batch, batch, trace_workers)
                    future.add_done_callback(
                        lambda f, batch=batch, g=generation: self._on_batch_done(
                            f, batch, g
                        )
                    )
                    dispatched += len(batch)
                metrics.incr("campaign.batches_dispatched", len(batches))
                metrics.gauge("campaign.chunk_size", max(len(b) for b in batches))
                return
            except (
                OSError,
                ImportError,
                BrokenProcessPool,
                RuntimeError,
            ) as error:
                # Sandboxes without fork support or /dev/shm land here; the
                # submission still completes, just serially.  The broken
                # pool is discarded so a later submit can try a fresh one.
                # Batches that made it onto the pool before the failure stay
                # there (their callbacks publish them); only the unsubmitted
                # remainder moves to the serial queue -- nothing runs twice.
                metrics.incr("campaign.pool_fallbacks")
                log.warning(
                    "process pool unavailable; falling back to serial",
                    component="scheduler",
                    error=str(error),
                    dispatched=dispatched,
                )
                self._discard_pool()
                jobs = jobs[dispatched:]
        # Serial path: evaluation happens in the consuming thread, one job
        # per queue drain, so results still stream as they complete.
        submission._serial.extend(jobs)

    def _on_batch_done(
        self,
        future: "concurrent.futures.Future",
        batch: List[EvalJob],
        generation: int,
    ) -> None:
        """Pool-future completion: recover failures, then publish records.

        ``generation`` is the pool generation the batch was dispatched on,
        so a pool-level failure can tell "my pool broke" from "my pool was
        already replaced by an earlier failure's rebuild".  Runs on the
        pool's completion machinery (or inline for an already-finished
        future), so it must never raise.
        """
        retryable = True
        try:
            records, span_dicts, counter_delta = future.result()
        except concurrent.futures.CancelledError:
            # close() cancelled the queued batch; resolve its flights with
            # transient error records so no joined submission hangs.  These
            # synthetic records are final: never retried.
            retryable = False
            records = [
                self._synthetic_error(job, "evaluation cancelled by scheduler shutdown")
                for job in batch
            ]
            span_dicts, counter_delta = [], {}
        except (OSError, BrokenProcessPool) as error:
            # Pool-level breakage: every remaining future is doomed too.
            # Self-heal -- rebuild the pool once per generation and
            # re-enqueue this batch's still-in-flight jobs on it; only with
            # the rebuild budget spent does the batch fall back to
            # in-process evaluation.
            metrics.incr("campaign.pool_fallbacks")
            log.warning(
                "process pool broke mid-dispatch",
                component="scheduler",
                error=str(error),
                jobs=len(batch),
            )
            if self._handle_broken_pool(batch, generation, error):
                return  # re-enqueued on the rebuilt pool (or already done)
            records = [_runner.evaluate_job(job) for job in batch]
            metrics.incr("scheduler.evaluations", len(records))
            span_dicts, counter_delta = [], {}
        except Exception as error:
            # One raising future must not abort the whole submission.
            # evaluate_job itself never raises, so a failed future is a
            # dispatch failure (pickling, a worker dying mid-batch) that
            # cannot be attributed to any single job of the batch;
            # re-evaluate the batch in-process so the healthy jobs still
            # get real records and the true offender is classified per job
            # by evaluate_job -- deterministic inapplicability as
            # "skipped", anything else as a transient (uncached) "error".
            metrics.incr("campaign.batch_failures")
            log.warning(
                "worker batch failed; re-evaluating in-process",
                component="scheduler",
                error=f"{type(error).__name__}: {error}",
                jobs=len(batch),
            )
            records = [_runner.evaluate_job(job) for job in batch]
            metrics.incr("scheduler.evaluations", len(records))
            span_dicts, counter_delta = [], {}
        else:
            metrics.incr("scheduler.evaluations", len(records))
        if counter_delta:
            metrics.merge_counters(counter_delta)
        if span_dicts:
            get_tracer().adopt(span_dicts)
        if retryable:
            self._publish(records, batch)
        else:
            for record in records:
                self._complete(record)

    def _publish(self, records: List[EvalRecord], batch: List[EvalJob]) -> None:
        """Complete each record, diverting transient failures into retry."""
        jobs_by_key = {job.key: job for job in batch}
        for record in records:
            job = jobs_by_key.get(record.key)
            if job is not None and self._maybe_retry(job, record):
                continue  # a retry timer owns this job's completion now
            self._complete(record)

    def _maybe_retry(self, job: EvalJob, record: EvalRecord) -> bool:
        """Schedule a re-evaluation for a transient failure, if allowed.

        Only ``error`` (transient, uncached) records are candidates; the
        configured :class:`~repro.resilience.retry.RetryPolicy` bounds the
        attempts and dictates the deterministic backoff.  The retry runs on
        a daemon timer thread and publishes through the normal completion
        path, so joined submissions transparently receive the final record.
        """
        if self.retry_policy is None or record.status != ERROR:
            return False
        with self._lock:
            attempt = self._attempts.get(job.key, 0) + 1
            if attempt > self.retry_policy.max_retries:
                self._attempts.pop(job.key, None)
                return False
            self._attempts[job.key] = attempt
        metrics.incr("scheduler.retries")
        delay = self.retry_policy.backoff_s(attempt)
        log.warning(
            "retrying transient evaluation failure",
            component="scheduler",
            key=job.key,
            attempt=attempt,
            backoff_s=round(delay, 4),
            note=record.note,
        )
        timer = threading.Timer(delay, self._retry_job, args=(job,))
        timer.daemon = True
        timer.start()
        return True

    def _retry_job(self, job: EvalJob) -> None:
        """Timer body: re-evaluate one job in-process and publish it."""
        record = _runner.evaluate_job(job)
        metrics.incr("scheduler.evaluations")
        self._publish([record], [job])

    def _evaluate_serial(self, job: EvalJob) -> None:
        """Evaluate one owned job in the calling thread and publish it."""
        record = _runner.evaluate_job(job)
        metrics.incr("scheduler.evaluations")
        self._publish([record], [job])

    # ------------------------------------------------------------ completion
    def _complete(self, record: EvalRecord) -> None:
        """Publish one finished record: cache it, then retire the flight.

        The cache write happens *before* the flight is removed so a racing
        :meth:`submit` always sees at least one of the two -- it can join
        the flight or hit the cache, never re-evaluate.
        """
        with self._lock:
            if record.status != ERROR:
                # Error records are transient (a worker OOM, say) -- caching
                # them would replay the failure forever; only determinate
                # outcomes are persisted.
                try:
                    self.cache.put(record.key, record.to_dict())
                except Exception as error:
                    # A failed cache write must not swallow the record:
                    # subscribers still get their answer, the key just is
                    # not persisted (a later campaign re-evaluates it).
                    metrics.incr("scheduler.cache_write_failures")
                    log.warning(
                        "cache write failed; delivering record uncached",
                        component="scheduler",
                        key=record.key,
                        error=f"{type(error).__name__}: {error}",
                    )
            self._attempts.pop(record.key, None)
            flight = self._inflight.pop(record.key, None)
            subscribers = list(flight.subscribers) if flight is not None else []
            metrics.gauge("scheduler.inflight", len(self._inflight))
        for subscriber in subscribers:
            subscriber._deliver(record)

    def _abandon(self, submission: Submission, unstarted: List[EvalJob]) -> None:
        """Drop a cancelled submission's subscriptions and unstarted work."""
        with self._lock:
            for flight in self._inflight.values():
                if submission in flight.subscribers:
                    flight.subscribers.remove(submission)
        for job in unstarted:
            # Never evaluated; resolve so joined submissions see an answer.
            self._complete(
                self._synthetic_error(job, "evaluation cancelled by the submitting client")
            )

    @staticmethod
    def _synthetic_error(job: EvalJob, note: str) -> EvalRecord:
        """A transient (never cached) error record for an unevaluated job."""
        return EvalRecord(
            workload=job.workload,
            rows=job.rows,
            cols=job.cols,
            style=job.style,
            variant=job.variant,
            library=job.spec.library,
            key=job.key,
            opt_level=job.spec.opt_level,
            status=ERROR,
            note=note,
        )
