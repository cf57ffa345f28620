"""Tests of the benchmark itself: ``python -m pytest perfbench``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import e2e  # noqa: E402
import layers  # noqa: E402
import plan  # noqa: E402
from spans import Patcher, Span, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def expected():
    return plan.load_expected()


# ------------------------------------------------------------ seeded ops
def test_same_seed_gives_same_op_lists(expected):
    assert plan.report_ops(7, 2) == plan.report_ops(7, 2)
    assert plan.sweep_ops(7, 3) == plan.sweep_ops(7, 3)
    assert plan.service_plan(7, 3, expected["records"]) == plan.service_plan(7, 3, expected["records"])
    assert plan.report_ops(7, 2) != plan.report_ops(8, 2)
    assert plan.sweep_ops(7, 3) != plan.sweep_ops(8, 3)
    assert plan.service_plan(7, 3, expected["records"]) != plan.service_plan(8, 3, expected["records"])


def test_every_seed_does_the_same_work(expected):
    assert Counter(plan.report_ops(1, 2)) == Counter(plan.report_ops(2, 2))
    assert Counter(plan.sweep_ops(1, 3)) == Counter(plan.sweep_ops(2, 3))
    assert plan.sweep_ops(1, 3).count(plan.DEMO_OP) == 1
    records = expected["records"]
    for seed in (1, 2):
        rounds = plan.service_plan(seed, 3, records)
        # A longer run adds whole rounds of the same mix.
        assert rounds[:2] == plan.service_plan(seed, 2, records)
        for prefill, requests in rounds:
            assert len(set(prefill)) == (len(records) + 1) // 2
            assert set(prefill) <= set(records)
            assert len(requests) == plan.SERVICE_CLIENTS
            for names in requests:
                assert sorted(names) == sorted(plan.RECORD_CAMPAIGNS)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert e2e.tail_percentile(100) == 90
    assert e2e.tail_percentile(42) == 76
    assert e2e.tail_percentile(12) == 50


# ---------------------------------------------------------------- tracing
def test_self_times_account_for_each_root():
    tracer = Tracer()
    leafy = tracer.wrap(lambda: time.sleep(0.002), "leaf", leaf=True)
    inner = tracer.wrap(lambda: (time.sleep(0.002), leafy()), "inner")
    with tracer.span("root"):
        inner()
        leafy()
        time.sleep(0.001)
    own = tracer.self_times()
    for root, total in tracer.root_balance():
        assert total == pytest.approx(root.duration, abs=1e-9)
    root = next(s for s in tracer.spans if s.name == "root")
    assert own[root.id] < root.duration
    assert tracer.layer_self_times()["leaf"] >= 0.004


def test_service_overhead_is_client0_time_outside_server_work():
    tracer = Tracer()
    tracer.spans = [
        Span(1, "bench.op", None, 1, 0.0, 10.0, detail="client0 demo"),
        Span(2, "service.request", 1, 1, 0.0, 10.0),
        Span(3, "bench.op", None, 2, 0.0, 10.0, detail="client1 demo"),
        Span(4, "service.request", 3, 2, 0.0, 10.0),
        Span(5, "engine.evaluate_job", None, 3, 2.0, 5.0),
        Span(6, "cache.get", None, 3, 4.0, 6.0),
        Span(7, "cache.put", None, 3, 12.0, 13.0),
    ]
    assert layers.service_overhead(tracer) == pytest.approx(6.0)


@pytest.fixture(scope="module")
def traced(expected, tmp_path_factory):
    """One report and one campaign, untraced and then traced."""
    layers.import_layers()
    work = tmp_path_factory.mktemp("traced")
    argv_report = ["--workload", "fifo", "--rows", "16", "--cols", "16", "--report"]

    def campaign(tag):
        cache_dir = work / tag
        code, _ = layers._cli(["--campaign", "power", "--cache-dir", str(cache_dir), "--serial", "--quiet"])
        return code, e2e.check_campaign_cache(cache_dir, "power", expected)

    untraced = (layers._cli(argv_report), campaign("untraced"))
    tracer = Tracer()
    patcher = Patcher(tracer)
    layers.install(patcher)
    patched = patcher.patched
    try:
        with tracer.span("bench.op"):
            traced_report = layers._cli(argv_report)
        with tracer.span("bench.op"):
            traced_campaign = campaign("traced")
    finally:
        patcher.restore()
    return {
        "untraced": untraced,
        "traced": (traced_report, traced_campaign),
        "tracer": tracer,
        "patched": patched,
    }


def test_traced_outputs_equal_untraced_outputs(traced, expected):
    want = expected["reports"]["fifo/16x16"]
    for (code, out), (campaign_code, problems) in (traced["untraced"], traced["traced"]):
        assert code == 0 and plan.parse_report_line(out) == want
        assert campaign_code == 0 and problems == []


def test_traced_run_covers_the_layers(traced):
    own = traced["tracer"].layer_self_times()
    for name in ("core.map", "hdl.simulator.simulate", "engine.evaluate_job", "synth.power.estimate",
                 "hdl.compiled.simulate", "hdl.netlist.clone", "synth.timing.report", "cache.put"):
        assert own.get(name, 0.0) > 0.0, name
    for root, total in traced["tracer"].root_balance():
        assert total == pytest.approx(root.duration, rel=1e-9, abs=1e-9)


def test_every_wrapped_entry_point_is_restored(traced):
    assert len(traced["patched"]) > 30
    for owner, attr, original in traced["patched"]:
        current = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert current is original, f"{owner}.{attr} still wrapped"


def test_chrome_trace_export(traced, tmp_path):
    path = tmp_path / "trace.json"
    traced["tracer"].write_chrome_trace(str(path))
    events = json.loads(path.read_text())["traceEvents"]
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == len(traced["tracer"].spans)
    assert all({"name", "ts", "dur", "pid", "tid"} <= set(e) for e in spans)
    assert any(e["name"] == "bench.op" for e in spans)


# ---------------------------------------------------------------- compare
def test_compare_verdicts():
    base = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00]
    assert compare.verdict(base, [v * 0.8 for v in base], 0.1, "lower")[0] == "better"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "lower")[0] == "worse-beyond-bound"
    assert compare.verdict(base, [v * 1.02 for v in base], 0.1, "lower")[0] == "within-bound"
    assert compare.verdict(base, [v * 1.2 for v in base], 0.1, "higher")[0] == "better"
    noisy = [0.5, 1.5, 0.7, 1.3, 1.0, 0.6, 1.4]
    assert compare.verdict(base, noisy, 0.1, "lower")[0] == "unresolved"


# ------------------------------------------------------------------ contract
def test_benchmark_json_names_what_the_runs_print():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(plan.WORKLOADS)
    assert tuple(m["name"] for m in spec["end_to_end"]) == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER_UNITS
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "report", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode != 0
    assert '"metrics"' not in result.stdout
