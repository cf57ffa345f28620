"""Campaign execution: fan jobs out, stream records back, merge Pareto fronts.

:class:`CampaignRunner` is the synchronous client of the dispatch layer:
pool ownership, chunking, caching and the per-future error policy all live
in :class:`~repro.engine.scheduler.Scheduler` (which the campaign service
shares across clients), while the runner maps one :class:`Campaign` through
one submission and merges the streamed records into a
:class:`CampaignResult` whose records are in campaign order -- so serial,
parallel and remote runs of the same campaign are bit-for-bit identical.
This module also hosts the worker-side pieces the scheduler dispatches
(:func:`evaluate_job`, :func:`_evaluate_batch`, :func:`_warm_worker`) and
:func:`evaluate_point`, the one evaluator behind campaign jobs and
``--explore``.
"""

from __future__ import annotations

import time
import traceback
import warnings
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Tuple

from repro.core.mapping_params import MappingError
from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign, EvalJob, build_design
from repro.engine.records import ERROR, OK, SKIPPED, CampaignResult, EvalRecord
from repro.flow import FlowSpec

# Every architecture build_design can return, loaded with the runner so a
# process that evaluates jobs has them before its pool forks: workers
# inherit them instead of importing them on their first job.
from repro.generators import (  # sradlint: disable=ast.dead-import -- loaded for the fork
    arithmetic,
    counter_based,
    fsm_based,
    sfm_pointer,
    srag_design,
)
from repro.hdl.netlist import NetlistError
from repro.obs import (
    NULL_SPAN,
    Tracer,
    get_tracer,
    metrics,
    set_tracer,
    span,
)
from repro.resilience.faults import fault_point
from repro.synth.power import estimate_power
from repro.workloads.loopnest import AffineAccessPattern

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.engine.scheduler import Scheduler
    from repro.resilience.retry import RetryPolicy

__all__ = [
    "CampaignRunner",
    "evaluate_job",
    "evaluate_point",
]


def warn_unclosed(owner: object) -> None:
    """``ResourceWarning`` for a pool owner reclaimed by the garbage collector."""
    warnings.warn(
        f"unclosed {type(owner).__name__} reclaimed by the garbage collector; "
        "call close() or use it as a context manager",
        ResourceWarning,
        source=owner,
    )


def _warm_worker() -> None:
    """Process-pool initializer: pre-import the evaluation stack.

    Run once per worker process instead of lazily on its first job, so the
    import and registry-construction cost overlaps with job submission and
    every job -- including the first one a worker sees -- pays only for its
    own evaluation.

    Also detaches the signal plumbing a fork-started worker inherits from
    an asyncio parent: ``loop.add_signal_handler`` registers a wakeup fd
    (a self-pipe the event loop reads), and after ``fork`` the worker
    shares that pipe.  A signal delivered to the *worker* -- e.g. the
    SIGTERM ``ProcessPoolExecutor`` sends its survivors when a sibling
    crashes and the pool breaks -- would be written into the shared pipe
    and replayed as the *parent's* signal, gracefully shutting down the
    campaign service mid-rebuild.  Resetting the dispositions and wakeup
    fd keeps worker-directed signals in the worker.
    """
    import signal

    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from repro.hdl import primitives
    from repro.synth import cell_library
    from repro.workloads.registry import available_workloads

    available_workloads()
    # Touching the tables forces their module-level construction here.
    assert primitives.PRIMITIVES and cell_library.LIBRARIES


#: Shape of one worker batch result: the records, the serialised span trees
#: recorded while evaluating them (empty unless the parent traces), and the
#: worker-side metrics counter delta for the batch.
BatchResult = Tuple[List[EvalRecord], List[Dict[str, Any]], Dict[str, Any]]


def _evaluate_batch(jobs: List[EvalJob], collect_spans: bool = False) -> BatchResult:
    """Evaluate a chunk of jobs in one worker call (amortises pickling).

    This is the worker-side telemetry collector: metric increments made
    while evaluating the batch are snapshotted and shipped back as a delta,
    and -- when the dispatching parent traces (``collect_spans``) -- the
    batch runs under a fresh tracer whose span trees are serialised into the
    return value so the parent can re-parent them under its dispatch span.
    """
    fault_point("scheduler.worker")
    before = metrics.snapshot()
    if collect_spans:
        previous = get_tracer()
        tracer = set_tracer(Tracer(enabled=True))
        try:
            records = [evaluate_job(job) for job in jobs]
        finally:
            set_tracer(previous)
        spans = [root.to_dict() for root in tracer.roots]
    else:
        records = [evaluate_job(job) for job in jobs]
        spans = []
    return records, spans, metrics.counters_since(before)


def evaluate_job(job: EvalJob) -> EvalRecord:
    """Evaluate one campaign job: :func:`evaluate_point` under the job's identity.

    With tracing enabled the evaluation runs under an ``evaluate_job`` span
    with one child span per phase (pattern build, mapping, synthesis with
    its ``flow.*`` stages, power); that span tree is the per-stage
    breakdown.
    """
    with span("evaluate_job", detail=job.label):
        return evaluate_point(
            job.pattern, job.style, job.variant, job.spec,
            workload=job.workload, rows=job.rows, cols=job.cols, key=job.key,
        )


def evaluate_point(
    pattern: Callable[[], AffineAccessPattern],
    style: str,
    variant: str,
    spec: FlowSpec,
    *,
    workload: str,
    rows: int,
    cols: int,
    key: str = "",
) -> EvalRecord:
    """Evaluate one architecture for one access pattern; never raises.

    This is the one place a design point is classified: inapplicable
    architectures come back as ``skipped`` records and unexpected failures
    as ``error`` records, so one bad point cannot take down a campaign, an
    exploration or a worker process.  ``pattern`` builds the access pattern
    inside that classification; ``workload``/``rows``/``cols``/``key`` are
    the record's identity.  The power study (``spec.power_cycles``) and the
    lint and verify diagnostics land on the record here too.
    """
    start = time.perf_counter()

    def record(status: str, **fields: Any) -> EvalRecord:
        return EvalRecord(
            workload=workload, rows=rows, cols=cols, style=style, variant=variant,
            library=spec.library, key=key, status=status,
            # On every record so skipped/error records keep the grid axis too.
            opt_level=spec.opt_level,
            duration_s=time.perf_counter() - start,
            **fields,
        )

    try:
        # Inside the try: an injected exception classifies exactly like a
        # real one (deterministic -> skipped, transient -> error).
        fault_point("runner.evaluate")
        with span("job.pattern"):
            built = pattern()
        if style == "FSM" and built.trip_count > spec.max_fsm_states:
            raise ValueError(
                f"sequence length {built.trip_count} exceeds "
                f"max_fsm_states={spec.max_fsm_states}"
            )
        with span("job.mapping"):
            design = build_design(built, style, variant)
        with span("job.synthesize"):
            result = design.synthesize(spec=spec)
        power: Dict[str, float] = {}
        if spec.power_cycles:
            # Measure on the buffered working copy the area/delay figures
            # came from, so inserted buffer trees pay their switching energy.
            with span("job.power"):
                report = estimate_power(
                    result.netlist,
                    library=spec.resolve_library(),
                    cycles=spec.power_cycles,
                )
            power = {
                "energy_per_access_fj": report.energy_per_access_fj,
                "avg_power_uw": report.average_power_uw,
            }
    except (MappingError, NetlistError, ValueError) as error:
        return record(SKIPPED, note=str(error))
    except Exception:  # pragma: no cover - defensive; surfaced in the record
        return record(ERROR, note=traceback.format_exc(limit=3))
    return record(
        OK,
        delay_ns=result.delay_ns,
        area_cells=result.area_cells,
        flip_flops=result.area.flip_flop_count,
        total_cells=sum(result.area.cell_counts.values()),
        buffers_inserted=result.buffers_inserted,
        opt_cells_removed=(
            result.opt_report.cells_removed if result.opt_report else 0
        ),
        lint_findings=(
            [finding.to_dict() for finding in result.lint_report.findings]
            if result.lint_report is not None
            else []
        ),
        verify_result=(
            result.verify_report.to_dict() if result.verify_report is not None else None
        ),
        **power,
    )


class CampaignRunner:
    """Run campaigns against a result cache, serially or in parallel.

    Since the scheduler split, the runner is a thin *synchronous client* of
    :class:`repro.engine.scheduler.Scheduler`: the warmed process pool,
    chunking heuristic, per-future error policy and cache writes all live in
    the scheduler, and :meth:`run` just submits the campaign's jobs and
    drains the resulting record stream in campaign order.  The public API
    and result semantics are unchanged.

    Parameters
    ----------
    cache:
        Result store to consult and populate; defaults to a fresh in-memory
        cache (no persistence).
    workers:
        Worker process count.  ``None`` picks ``min(cpu_count, 8)``;
        ``0``/``1`` runs serially in-process.
    progress:
        Optional callback invoked as ``progress(record, done, total)`` as
        each record becomes available (cached records first, then fresh ones
        in completion order).
    retry_policy:
        Optional :class:`~repro.resilience.retry.RetryPolicy` forwarded to
        the scheduler: transient (``error``) records are re-run under
        bounded deterministic backoff before being surfaced.

    A broken worker pool is rebuilt up to the scheduler's default budget
    (two rebuilds) before evaluation degrades to serial.

    To share one pool, one cache and one in-flight dedup table between
    several callers (as the campaign service does), submit to one
    :class:`~repro.engine.scheduler.Scheduler` directly.

    One worker pool is kept alive across the runner's lifetime, so a
    sequence of ``run()`` calls (a campaign sweep, an explorer session)
    pays process startup and the per-worker registry warm-up exactly once.
    Use the runner as a context manager -- or call :meth:`close` -- to shut
    the pool down deterministically; a runner whose still-warm pool is
    instead reclaimed by the garbage collector emits a
    ``ResourceWarning``.
    """

    def __init__(
        self,
        cache: Optional[ResultCache] = None,
        *,
        workers: Optional[int] = None,
        progress: Optional[Callable[[EvalRecord, int, int], None]] = None,
        retry_policy: Optional[RetryPolicy] = None,
    ):
        # Imported here, not at module top: scheduler.py imports the
        # evaluation primitives from this module.
        from repro.engine.scheduler import Scheduler

        self._scheduler = Scheduler(cache, workers=workers, retry_policy=retry_policy)
        self.progress = progress
        self._closed = False

    # ----------------------------------------------------------- delegation
    @property
    def scheduler(self) -> "Scheduler":
        """The scheduler this runner submits to."""
        return self._scheduler

    @property
    def cache(self) -> ResultCache:
        return self._scheduler.cache

    @property
    def workers(self) -> int:
        return self._scheduler.workers

    # ------------------------------------------------------------ lifecycle
    def close(self) -> None:
        """Shut down the scheduler's worker pool (idempotent)."""
        self._closed = True
        self._scheduler.close()

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - interpreter-shutdown dependent
        scheduler = getattr(self, "_scheduler", None)
        if scheduler is None:
            return
        if not getattr(self, "_closed", True) and scheduler._pool is not None:
            warn_unclosed(self)
        scheduler.close()

    # ------------------------------------------------------------------ run
    def run(self, campaign: Campaign, *, force: bool = False) -> CampaignResult:
        """Evaluate ``campaign``, reusing cached records unless ``force``.

        Records come back in campaign order regardless of worker completion
        order, so serial and parallel runs produce identical results.
        """
        total = len(campaign.jobs)
        done = 0
        by_key: Dict[str, EvalRecord] = {}
        # Campaigns may legitimately contain duplicate keys (a grid that
        # revisits a point); the scheduler evaluates each key once but every
        # occurrence must still advance the progress counter, or `done`
        # never reaches `total`.
        occurrences: Dict[str, int] = {}
        for job in campaign.jobs:
            occurrences[job.key] = occurrences.get(job.key, 0) + 1

        with span("campaign.run", detail=campaign.name) as run_span:
            with span("campaign.dispatch") as dispatch_span:
                submission = self._scheduler.submit(campaign.jobs, force=force)
                pending = submission.expected - len(submission.cached_keys)
                run_span.add("jobs", total)
                run_span.add(
                    "cache_hits",
                    sum(occurrences[key] for key in submission.cached_keys),
                )
                run_span.add("pending", pending)
                if dispatch_span is not NULL_SPAN:
                    dispatch_span.detail = f"{pending} pending job(s)"
                for record in submission.results():
                    by_key[record.key] = record
                    for _ in range(occurrences.get(record.key, 1)):
                        done += 1
                        if self.progress:
                            self.progress(record, done, total)

        records = [by_key[job.key] for job in campaign.jobs]
        return CampaignResult(campaign=campaign.name, records=records)
