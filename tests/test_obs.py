"""Tests for the observability stack: tracing, metrics, logging, profiling.

The CI matrix runs the whole suite twice -- once plain and once with
``SRADGEN_TRACE=1`` -- so every test here manages the global tracer state
explicitly (install a private tracer, restore the previous one) instead of
assuming it starts disabled.
"""

import dataclasses
import json
import time

import pytest

from repro.engine.cache import ResultCache
from repro.engine.jobs import EvalJob
from repro.engine.runner import _evaluate_batch, evaluate_job
from repro.flow import FlowSpec
from repro.obs import (
    NULL_SPAN,
    MetricsRegistry,
    Tracer,
    enable_tracing,
    get_tracer,
    log,
    metrics,
    render_spans,
    set_tracer,
    span,
    tracing_enabled,
)


@pytest.fixture
def private_tracer():
    """Install a fresh enabled tracer for one test; restore afterwards."""
    previous = get_tracer()
    tracer = set_tracer(Tracer(enabled=True))
    yield tracer
    set_tracer(previous)


@pytest.fixture
def disabled_tracer():
    """Install a fresh disabled tracer for one test; restore afterwards."""
    previous = get_tracer()
    tracer = set_tracer(Tracer(enabled=False))
    yield tracer
    set_tracer(previous)


# ---------------------------------------------------------------------------
# Tracing core
# ---------------------------------------------------------------------------

def test_disabled_span_is_the_shared_noop_singleton(disabled_tracer):
    assert not tracing_enabled()
    assert span("anything") is NULL_SPAN
    assert span("else", detail="ignored") is NULL_SPAN
    # The no-op is a working context manager with a no-op counter API.
    with span("qm.minimize") as s:
        s.add("merge_operations", 1000)
    assert disabled_tracer.roots == []


def test_disabled_tracer_overhead_floor(disabled_tracer):
    """Best-of-3: a million disabled spans must stay in noise territory.

    The bound is deliberately loose (CI machines vary wildly); the point is
    catching a regression that starts allocating or reading the clock on
    the disabled path, which shows up as an order of magnitude, not 20%.
    """
    n = 200_000

    def traced_loop():
        for _ in range(n):
            with span("hot"):
                pass

    elapsed = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        traced_loop()
        elapsed = min(elapsed, time.perf_counter() - start)
    # ~2.5 us per disabled span is an order of magnitude above observed cost.
    assert elapsed < n * 2.5e-6, f"disabled span overhead too high: {elapsed:.3f}s"


def test_spans_nest_into_a_tree(private_tracer):
    with span("outer", detail="top") as outer:
        outer.add("items", 2)
        with span("inner.a"):
            pass
        with span("inner.a"):
            pass
        with span("inner.b"):
            pass
    assert [root.name for root in private_tracer.roots] == ["outer"]
    root = private_tracer.roots[0]
    assert [child.name for child in root.children] == ["inner.a", "inner.a", "inner.b"]
    assert root.counters == {"items": 2}
    assert root.wall_s >= 0.0
    assert all(child.children == [] for child in root.children)


def test_span_round_trips_through_dicts(private_tracer):
    with span("parent", detail="d") as parent:
        parent.add("hits", 3)
        with span("child"):
            pass
    data = private_tracer.roots[0].to_dict()
    rebuilt = type(private_tracer.roots[0]).from_dict(data)
    assert rebuilt.name == "parent"
    assert rebuilt.detail == "d"
    assert rebuilt.counters == {"hits": 3}
    assert [c.name for c in rebuilt.children] == ["child"]
    assert rebuilt.to_dict() == data


def test_adopt_reparents_serialised_spans(private_tracer):
    worker = Tracer(enabled=True)
    with worker.span("evaluate_job"):
        with worker.span("job.synthesize"):
            pass
    shipped = [root.to_dict() for root in worker.roots]

    with span("campaign.dispatch"):
        adopted = get_tracer().adopt(shipped)
    root = private_tracer.roots[0]
    assert root.name == "campaign.dispatch"
    assert [child.name for child in root.children] == ["evaluate_job"]
    assert [g.name for g in root.children[0].children] == ["job.synthesize"]
    assert adopted == root.children


def test_adopt_without_open_span_lands_in_roots(private_tracer):
    get_tracer().adopt([{"name": "orphan", "wall_s": 0.1}])
    assert [root.name for root in private_tracer.roots] == ["orphan"]


def test_enable_tracing_toggles_in_place(disabled_tracer):
    assert not tracing_enabled()
    enable_tracing()
    assert tracing_enabled()
    with span("now.recorded"):
        pass
    enable_tracing(False)
    assert not tracing_enabled()
    assert [root.name for root in disabled_tracer.roots] == ["now.recorded"]


def test_render_spans_merges_same_name_siblings(private_tracer):
    with span("campaign.dispatch"):
        for _ in range(3):
            with span("evaluate_job") as s:
                s.add("jobs", 1)
    rendered = render_spans(private_tracer.roots)
    assert "evaluate_job x3" in rendered
    assert "jobs=3" in rendered


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------

def test_metrics_registry_counters_and_gauges():
    reg = MetricsRegistry()
    reg.incr("cache.hits")
    reg.incr("cache.hits", 4)
    reg.gauge("cache.entries", 17)
    assert reg.counter("cache.hits") == 5
    assert reg.as_dict() == {
        "counters": {"cache.hits": 5},
        "gauges": {"cache.entries": 17},
    }
    parsed = json.loads(reg.to_json())
    assert parsed == reg.as_dict()
    reg.reset()
    assert reg.as_dict() == {"counters": {}, "gauges": {}}


def test_metrics_snapshot_delta_merge_round_trip():
    """The pool path: worker-side deltas fold into the parent registry."""
    reg = MetricsRegistry()
    reg.incr("qm.calls", 3)
    before = reg.snapshot()
    reg.incr("qm.calls", 2)
    reg.incr("cache.misses")
    delta = reg.counters_since(before)
    assert delta == {"qm.calls": 2, "cache.misses": 1}

    parent = MetricsRegistry()
    parent.incr("qm.calls", 10)
    parent.merge_counters(delta)
    assert parent.counter("qm.calls") == 12
    assert parent.counter("cache.misses") == 1


def test_cache_feeds_the_metrics_registry(tmp_path):
    cache = ResultCache(str(tmp_path))
    before = metrics.snapshot()
    cache.put("k1", {"status": "ok"})
    assert cache.get("k1") == {"status": "ok"}
    assert cache.get("missing") is None
    delta = metrics.counters_since(before)
    assert delta["cache.appends"] == 1
    assert delta["cache.hits"] == 1
    assert delta["cache.misses"] == 1


# ---------------------------------------------------------------------------
# Structured logging
# ---------------------------------------------------------------------------

def test_log_writes_structured_lines_to_stderr(capsys):
    log.warning("process pool unavailable", component="runner", error="boom")
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "[sradgen] WARNING process pool unavailable" in captured.err
    assert "component=runner" in captured.err
    assert "error=boom" in captured.err


# ---------------------------------------------------------------------------
# Flow profiling and the cross-process collector
# ---------------------------------------------------------------------------

JOB = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
# FSM synthesis exercises the QM minimiser, so this job always produces
# qm.* counter increments -- the probe for cross-process metric deltas.
FSM_JOB = EvalJob("fifo", 4, 4, "FSM", "binary")
# Every optional phase on: logic optimization and the power study.
O1_POWER_JOB = EvalJob(
    "fifo", 4, 4, "SRAG", "two-hot", FlowSpec(opt_level=1, power_cycles=16)
)
JOB_PHASES = {"job.pattern", "job.mapping", "job.synthesize"}
FLOW_STAGES = {
    "flow.elaborate", "flow.validate", "flow.buffer", "flow.timing", "flow.area",
}


def _subtree_names(node):
    """Every span name below ``node`` (a serialised span dict)."""
    names = set()
    for child in node.get("children", ()):
        names.add(child["name"])
        names |= _subtree_names(child)
    return names


def test_traced_evaluate_job_span_tree_names_every_phase(private_tracer):
    record = evaluate_job(O1_POWER_JOB)
    assert record.status == "ok" and record.has_power
    assert [root.name for root in private_tracer.roots] == ["evaluate_job"]
    root = private_tracer.roots[0]
    assert root.detail == O1_POWER_JOB.label
    assert [c.name for c in root.children] == [
        "job.pattern", "job.mapping", "job.synthesize", "job.power",
    ]
    names = _subtree_names(root.to_dict())
    assert JOB_PHASES | FLOW_STAGES | {"job.power", "flow.opt"} <= names
    assert all(node.wall_s >= 0.0 for node in root.children)

    set_tracer(Tracer(enabled=False))
    assert evaluate_job(O1_POWER_JOB).status == "ok"
    assert get_tracer().roots == []


def test_eval_record_dict_is_byte_identical_with_tracing_on_and_off(
    disabled_tracer,
):
    """The invariant every cache key and JSONL record rests on."""
    plain = evaluate_job(JOB)
    enable_tracing()
    traced = evaluate_job(JOB)
    enable_tracing(False)
    # duration_s is wall clock and legitimately differs; normalise it.
    plain = dataclasses.replace(plain, duration_s=0.0)
    traced = dataclasses.replace(traced, duration_s=0.0)
    assert json.dumps(plain.to_dict(), sort_keys=True) == json.dumps(
        traced.to_dict(), sort_keys=True
    )


def test_worker_batch_ships_spans_and_counter_deltas_back(private_tracer):
    records, span_dicts, counter_delta = _evaluate_batch([FSM_JOB], True)
    assert [r.status for r in records] == ["ok"]
    # The worker traced under its own tracer; the parent's is untouched...
    assert get_tracer() is private_tracer
    assert private_tracer.roots == []
    # ...and the spans come back as plain data, ready for adoption.
    assert [s["name"] for s in span_dicts] == ["evaluate_job"]
    child_names = {c["name"] for c in span_dicts[0].get("children", ())}
    assert JOB_PHASES <= child_names
    assert FLOW_STAGES <= _subtree_names(span_dicts[0])
    assert counter_delta.get("qm.calls", 0) > 0

    with span("campaign.dispatch"):
        get_tracer().adopt(span_dicts)
    root = private_tracer.roots[0]
    assert [c.name for c in root.children] == ["evaluate_job"]


def test_worker_batch_skips_span_collection_when_not_asked(disabled_tracer):
    records, span_dicts, counter_delta = _evaluate_batch([FSM_JOB], False)
    assert [r.status for r in records] == ["ok"]
    assert span_dicts == []
    assert counter_delta.get("qm.calls", 0) > 0


# ---------------------------------------------------------------------------
# CLI surface
# ---------------------------------------------------------------------------

def test_cli_trace_renders_span_tree_on_stderr(capsys, disabled_tracer):
    from repro.cli import main

    assert main(
        ["--workload", "fifo", "--rows", "4", "--cols", "4", "--trace"]
    ) == 0
    captured = capsys.readouterr()
    assert "sradgen" in captured.err
    assert "(generate)" in captured.err


def test_cli_metrics_out_writes_registry_json(tmp_path, capsys, disabled_tracer):
    from repro.cli import main

    out = tmp_path / "metrics.json"
    assert main(
        [
            "--workload", "fifo", "--rows", "4", "--cols", "4",
            "--metrics-out", str(out),
        ]
    ) == 0
    payload = json.loads(out.read_text())
    assert set(payload) == {"counters", "gauges"}


def test_cli_cache_stats(tmp_path, capsys, disabled_tracer):
    from repro.cli import main

    cache_dir = str(tmp_path / "cache")
    cache = ResultCache(cache_dir)
    cache.put("k1", {"status": "ok"})
    cache.put("k2", {"status": "skipped"})
    cache.put("k1", {"status": "ok"})  # supersedes: one stale line

    assert main(["--cache-stats", "--cache-dir", cache_dir]) == 0
    out = capsys.readouterr().out
    assert "2 live record(s)" in out
    assert "3 total (2 live, 1 superseded" in out
    assert "ok: 1" in out
    assert "skipped: 1" in out


def test_cli_cache_stats_requires_cache_dir(capsys, disabled_tracer):
    from repro.cli import main

    with pytest.raises(SystemExit):
        main(["--cache-stats"])
