"""The traced run: per-layer self time, in-process and serial.

The benchmark wraps the public entry points of each ``repro`` layer from
here (nothing in ``src/`` changes), runs one round of the workload's seeded
op list in this process with evaluation serial (``--serial`` /
``workers=0``), so every span lands in one tracer, and turns the spans into
per-layer metrics.  The same round also runs untraced, which gives the
tracing overhead.  Counts the program already keeps (simulated cycles, QM
effort, cache hits, scheduler dedup) come from its metrics registry.
Layers a workload bypasses report 0.
"""

from __future__ import annotations

import asyncio
import contextlib
import importlib
import io
import pickle
import shutil
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import e2e
import plan
import procs
from spans import Patcher, Tracer

IMPORT_REPEATS = 5

#: Per-layer metrics: name -> unit.  Timings are self time in seconds.
PER_LAYER_UNITS: Dict[str, str] = {
    "cli.import_s": "s",
    "cli.repro_modules_loaded": "count",
    "core.map_s": "s",
    "hdl.simulator.simulate_s": "s",
    "hdl.simulator.cycles": "count",
    "hdl.simulator.cycles_per_s": "1/s",
    "hdl.emit.vhdl_s": "s",
    "engine.pool_start_s": "s",
    "engine.pickle_s_per_job": "s",
    "engine.pickle_bytes_per_job": "bytes",
    "engine.pool_speedup": "ratio",
    "engine.serial_wall_s": "s",
    "engine.pool_wall_s": "s",
    "engine.evaluate_job_s": "s",
    "engine.jobs_ok": "count",
    "engine.jobs_skipped": "count",
    "cache.load_s": "s",
    "cache.load_records": "count",
    "cache.get_s_per_hit": "s",
    "cache.put_s_per_record": "s",
    "cache.bytes_written": "bytes",
    "cache.hit_ratio": "ratio",
    "workloads.build_pattern_s": "s",
    "generators.build_design_s": "s",
    "generators.elaborate_s": "s",
    "synth.logic.minimize_s": "s",
    "synth.logic.minimize_calls": "count",
    "synth.logic.merge_operations": "count",
    "synth.fsm.synthesize_s": "s",
    "hdl.netlist.clone_s": "s",
    "hdl.netlist.validate_s": "s",
    "synth.opt.optimize_s": "s",
    "synth.opt.cells_removed": "count",
    "synth.buffering.insert_s": "s",
    "synth.buffering.buffers_inserted": "count",
    "synth.timing.report_s": "s",
    "synth.area.report_s": "s",
    "synth.power.estimate_s": "s",
    "hdl.compiled.cycles": "count",
    "hdl.compiled.cycles_per_s": "1/s",
    "verify.check_equivalence_s": "s",
    "verify.conflicts": "count",
    "lint.lint_netlist_s": "s",
    "service.request_s": "s",
    "service.overhead_s": "s",
    "service.records_streamed": "count",
    "service.dedup_ratio": "ratio",
    "service.duplicate_evaluations": "count",
    "orchestration.self_s": "s",
    "obs.trace_overhead_ratio": "ratio",
    "obs.traced_wall_s": "s",
    "obs.untraced_wall_s": "s",
}

#: Span or leaf name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "core.map": "core.map_s",
    "hdl.simulator.simulate": "hdl.simulator.simulate_s",
    "hdl.emit.vhdl": "hdl.emit.vhdl_s",
    "engine.evaluate_job": "engine.evaluate_job_s",
    "workloads.build_pattern": "workloads.build_pattern_s",
    "generators.build_design": "generators.build_design_s",
    "generators.elaborate": "generators.elaborate_s",
    "synth.logic.minimize": "synth.logic.minimize_s",
    "synth.fsm.synthesize": "synth.fsm.synthesize_s",
    "hdl.netlist.clone": "hdl.netlist.clone_s",
    "hdl.netlist.validate": "hdl.netlist.validate_s",
    "synth.opt.optimize": "synth.opt.optimize_s",
    "synth.buffering.insert": "synth.buffering.insert_s",
    "synth.timing.report": "synth.timing.report_s",
    "synth.area.report": "synth.area.report_s",
    "synth.power.estimate": "synth.power.estimate_s",
    "verify.check_equivalence": "verify.check_equivalence_s",
    "lint.lint_netlist": "lint.lint_netlist_s",
    "service.request": "service.request_s",
}

_SIMULATOR_METHODS = (
    "__init__", "reset", "poke", "poke_bus", "peek", "peek_bus",
    "peek_onehot", "settle", "step", "run_sequence",
)


def import_layers() -> None:
    """Import every wrapped module, so lazy imports cannot dodge the wrappers."""
    if str(procs.SRC) not in sys.path:
        sys.path.insert(0, str(procs.SRC))
    import repro.cli  # noqa: F401
    import repro.lint.design  # noqa: F401
    import repro.service.client  # noqa: F401
    import repro.service.server  # noqa: F401
    import repro.verify.cec  # noqa: F401


# ---------------------------------------------------------------- counters
def _count_status(tracer: Tracer, record, args, kwargs) -> None:
    tracer.count(f"engine.jobs_{record.status}")
    tracer.count(f"evaluated:{args[0].key}")


def _count_returned(counter: str, read: Callable) -> Callable:
    def count(tracer: Tracer, result, args, kwargs) -> None:
        tracer.count(counter, read(result))

    return count


def install(patcher: Patcher) -> None:
    """Wrap the public entry points of every layer."""
    import repro.cli
    import repro.core.sradgen
    import repro.engine.jobs
    import repro.engine.runner
    import repro.hdl.emit.vhdl
    import repro.lint.design
    import repro.service.client
    import repro.synth.area
    import repro.synth.buffering
    import repro.synth.flow
    import repro.synth.fsm.synthesis
    import repro.synth.opt
    import repro.synth.power
    import repro.synth.timing
    import repro.verify.cec
    import repro.workloads.registry
    from repro.core.addm_generator import SragAddressGenerator
    from repro.engine.cache import ResultCache
    from repro.engine.runner import CampaignRunner
    from repro.engine.scheduler import Scheduler
    from repro.generators.base import AddressGeneratorDesign
    from repro.hdl.compiled import CompiledSimulator
    from repro.hdl.netlist import Netlist
    from repro.hdl.simulator import Simulator

    p = patcher
    # Orchestration: entry points whose own time is glue, not a layer.
    p.function(repro.cli.main, "orchestration.cli")
    p.function(repro.core.sradgen.generate, "orchestration.generate")
    p.function(repro.synth.flow.run_synthesis_flow, "orchestration.synthesis_flow")
    p.method(CampaignRunner, "run", "orchestration.campaign_runner")
    p.method(AddressGeneratorDesign, "synthesize", "orchestration.synthesize")
    p.method(Scheduler, "submit", "orchestration.scheduler_submit")
    # Layers.
    p.method(SragAddressGenerator, "from_sequence", "core.map")
    for attr in _SIMULATOR_METHODS:
        p.method(Simulator, attr, "hdl.simulator.simulate", leaf=True)
    for attr in _SIMULATOR_METHODS + ("run",):
        p.method(CompiledSimulator, attr, "hdl.compiled.simulate", leaf=True)
    p.function(repro.hdl.emit.vhdl.emit_vhdl, "hdl.emit.vhdl")
    p.function(repro.engine.runner.evaluate_job, "engine.evaluate_job", counter=_count_status)
    p.method(ResultCache, "get", "cache.get")
    p.method(ResultCache, "put", "cache.put")
    p.function(repro.workloads.registry.build_pattern, "workloads.build_pattern")
    p.function(repro.engine.jobs.build_design, "generators.build_design")
    classes = list(AddressGeneratorDesign.__subclasses__())
    while classes:
        cls = classes.pop()
        classes += cls.__subclasses__()
        if "elaborate" in cls.__dict__:
            p.method(cls, "elaborate", "generators.elaborate")
    # The package re-exports ``minimize``, shadowing the submodule attribute.
    p.function(importlib.import_module("repro.synth.logic.minimize").minimize, "synth.logic.minimize")
    p.function(repro.synth.fsm.synthesis.synthesize_fsm, "synth.fsm.synthesize")
    p.method(Netlist, "clone", "hdl.netlist.clone")
    p.method(Netlist, "validate", "hdl.netlist.validate")
    p.function(
        repro.synth.opt.optimize_netlist,
        "synth.opt.optimize",
        counter=_count_returned("synth.opt.cells_removed", lambda report: report.cells_removed),
    )
    p.function(
        repro.synth.buffering.insert_buffer_trees,
        "synth.buffering.insert",
        counter=_count_returned("synth.buffering.buffers_inserted", lambda n: n),
    )
    p.function(repro.synth.timing.timing_report, "synth.timing.report")
    p.function(repro.synth.area.area_report, "synth.area.report")
    p.function(repro.synth.power.estimate_power, "synth.power.estimate")
    p.function(
        repro.verify.cec.check_equivalence,
        "verify.check_equivalence",
        counter=_count_returned("verify.conflicts", lambda result: result.stats.get("conflicts", 0)),
    )
    p.function(repro.lint.design.lint_netlist, "lint.lint_netlist")
    p.function(
        repro.service.client.run_campaign_remote,
        "service.request",
        counter=_count_returned("service.records_streamed", lambda result: len(result.records)),
    )


def clear_program_caches() -> None:
    """Drop every ``functools`` cache in ``repro``, as a fresh process would start."""
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for value in list(vars(module).values()):
            if callable(getattr(value, "cache_clear", None)) and hasattr(value, "cache_info"):
                value.cache_clear()


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*.jsonl")) if path.exists() else 0


# ------------------------------------------------------------- op passes
class Pass:
    """One in-process pass over a workload's traced op list."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.bytes_written = 0
        self.requested_jobs = 0
        self.cache_dirs: List[Path] = []

    def op(self, detail: str):
        return self.tracer.span("bench.op", detail) if self.tracer else contextlib.nullcontext()

    def outcome(self, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems[:2]


def _cli(argv: List[str]) -> Tuple[int, str]:
    import repro.cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = repro.cli.main(argv)
    return code, out.getvalue()


def report_pass(run: Pass, seed: int, work: Path, expected: dict) -> None:
    for workload, rows, cols in plan.report_ops(seed, 1):
        key = plan.report_key(workload, rows, cols)
        clear_program_caches()
        with run.op(key):
            code, out = _cli(["--workload", workload, "--rows", str(rows), "--cols", str(cols), "--report"])
        line = plan.parse_report_line(out)
        run.outcome([] if code == 0 and line == expected["reports"][key] else [f"{key}: report mismatch"])


def sweep_pass(run: Pass, seed: int, work: Path, expected: dict) -> None:
    for index, op in enumerate(plan.sweep_ops(seed, 1)):
        name, extra = op[0], list(op[1:])
        cache_dir = work / f"traced-cache-{id(run)}-{index}"
        clear_program_caches()
        with run.op(" ".join(op)):
            code, out = _cli(["--campaign", name, "--cache-dir", str(cache_dir), "--serial", "--quiet", *extra])
        problems = [] if code == 0 else [f"{name}: exit {code}"]
        problems += e2e.check_campaign_cache(cache_dir, name, expected)
        run.outcome(problems)
        run.bytes_written += _dir_bytes(cache_dir)
        run.cache_dirs.append(cache_dir)


def service_pass(run: Pass, seed: int, work: Path, expected: dict) -> None:
    """One ``service_mixed`` round against an in-process service evaluating serially."""
    from repro.engine.cache import ResultCache
    from repro.service.server import CampaignService

    campaigns = e2e.registered_campaigns()
    [(prefill, requests)] = plan.service_plan(seed, 1, expected["records"])
    cache_dir = work / f"traced-service-{id(run)}"
    e2e.prefill_cache(cache_dir, prefill, expected)
    prefilled_bytes = _dir_bytes(cache_dir)
    cache = ResultCache(str(cache_dir), backend="sharded")
    len(cache)  # load outside the measured window; cache.load_s measures it
    service = CampaignService(cache=cache, workers=0)
    started = threading.Event()
    holder: Dict[str, object] = {}

    async def serve() -> None:
        holder["address"] = await service.start("127.0.0.1", 0)
        holder["loop"] = asyncio.get_running_loop()
        started.set()
        await service.serve_forever()

    server_thread = threading.Thread(target=asyncio.run, args=(serve(),))
    server_thread.start()
    if not started.wait(30):
        raise RuntimeError("in-process service did not start")
    try:
        outcomes = e2e.drive_clients(holder["address"], campaigns, requests, run.op)
    finally:
        holder["loop"].call_soon_threadsafe(service.request_shutdown)
        server_thread.join(60)
    for _, name, result in outcomes:
        run.requested_jobs += len(expected["campaigns"][name])
        run.outcome(e2e.check_request(name, result, expected))
    duplicates = e2e.duplicate_evaluations(cache_dir)
    if duplicates:
        run.outcome([f"{duplicates} duplicate evaluation(s) on disk"])
    run.bytes_written += _dir_bytes(cache_dir) - prefilled_bytes
    run.cache_dirs.append(cache_dir)


PASSES = {"report": report_pass, "sweep_cold": sweep_pass, "service_mixed": service_pass}


# ------------------------------------------------------------ experiments
def cli_import_metrics(work: Path) -> Dict[str, float]:
    """Fresh-interpreter cost of ``import repro.cli`` and its module count."""
    bare, loaded = [], []
    count_script = (
        "import sys, repro.cli; "
        "print(sum(1 for m in sys.modules if m == 'repro' or m.startswith('repro.')))"
    )
    modules = 0
    for _ in range(IMPORT_REPEATS):
        bare.append(procs.run([sys.executable, "-c", "pass"], work).wall_s)
        result = procs.run([sys.executable, "-c", count_script], work)
        loaded.append(result.wall_s)
        modules = int(result.stdout.strip() or 0)
    return {
        "cli.import_s": max(0.0, statistics.median(loaded) - statistics.median(bare)),
        "cli.repro_modules_loaded": modules,
    }


def load_metrics(cache_dir: Path) -> Dict[str, float]:
    """Cold load of a cache directory through ``ResultCache``."""
    from repro.engine.cache import ResultCache

    cache = ResultCache(str(cache_dir))
    start = time.perf_counter()
    records = len(cache)
    return {"cache.load_s": time.perf_counter() - start, "cache.load_records": records}


def engine_metrics() -> Dict[str, float]:
    """Pool versus serial on the ``sweep_cold`` grids, plus pickling per job."""
    from repro.engine.cache import ResultCache
    from repro.engine.jobs import Campaign
    from repro.engine.runner import CampaignRunner
    from repro.engine.sweep import build_campaign

    def timed(campaign, workers: int):
        clear_program_caches()
        start = time.perf_counter()
        with CampaignRunner(ResultCache(), workers=workers) as runner:
            result = runner.run(campaign)
        return time.perf_counter() - start, result

    campaigns = [build_campaign(name) for name in plan.SWEEP_CAMPAIGNS]
    serial_wall = pool_wall = pickle_s = 0.0
    pickle_bytes = jobs = 0
    for campaign in campaigns:
        wall, result = timed(campaign, 0)
        serial_wall += wall
        pool_wall += timed(campaign, 2)[0]
        start = time.perf_counter()
        shipped = [pickle.dumps(campaign.jobs), pickle.dumps(result.records)]
        for payload in shipped:
            pickle.loads(payload)
        pickle_s += time.perf_counter() - start
        pickle_bytes += sum(len(payload) for payload in shipped)
        jobs += len(campaign.jobs)
    tiny = Campaign("pool-start", campaigns[0].jobs[:2])
    start_cost = timed(tiny, 2)[0] - timed(tiny, 0)[0]
    return {
        "engine.pool_start_s": max(0.0, start_cost),
        "engine.pickle_s_per_job": pickle_s / jobs,
        "engine.pickle_bytes_per_job": pickle_bytes / jobs,
        "engine.pool_speedup": serial_wall / pool_wall,
        "engine.serial_wall_s": serial_wall,
        "engine.pool_wall_s": pool_wall,
    }


# ------------------------------------------------------------- traced run
def _merged(intervals: List[Tuple[float, float]]) -> List[Tuple[float, float]]:
    merged: List[Tuple[float, float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def service_overhead(tracer: Tracer) -> float:
    """Client 0's request time during which the service neither evaluated nor touched the cache.

    For each request client 0 made, its latency minus the part of it that
    overlaps evaluation or cache spans (on any thread).  Measuring one
    client keeps the other client's wait on the same evaluations out.
    """
    busy = _merged(
        [(s.start, s.end) for s in tracer.spans if s.name in ("engine.evaluate_job", "cache.get", "cache.put")]
    )
    client0_ops = {s.id for s in tracer.spans if s.name == "bench.op" and s.detail.startswith("client0 ")}
    overhead = 0.0
    for span in tracer.spans:
        if span.name != "service.request" or span.parent not in client0_ops:
            continue
        covered = sum(max(0.0, min(end, span.end) - max(start, span.start)) for start, end in busy)
        overhead += span.duration - covered
    return overhead


def per_layer_metrics(
    tracer: Tracer, run: Pass, program: Dict[str, float], traced_wall: float, untraced_wall: float
) -> Dict[str, float]:
    own = tracer.layer_self_times()
    counts = tracer.counts
    values = {metric: own.get(name, 0.0) for name, metric in SELF_TIME_METRICS.items()}
    values["orchestration.self_s"] = sum(
        seconds for name, seconds in own.items()
        if name.startswith("orchestration.") or name == "bench.op"
    )
    sim_cycles = program.get("sim.reference.cycles", 0)
    compiled_cycles = program.get("sim.compiled.cycles", 0)
    compiled_s = own.get("hdl.compiled.simulate", 0.0)
    hits, misses = program.get("cache.hits", 0), program.get("cache.misses", 0)
    evaluated = [n for name, n in counts.items() if name.startswith("evaluated:")]
    values.update(
        {
            "hdl.simulator.cycles": sim_cycles,
            "hdl.simulator.cycles_per_s": sim_cycles / values["hdl.simulator.simulate_s"] if sim_cycles else 0.0,
            "hdl.compiled.cycles": compiled_cycles,
            "hdl.compiled.cycles_per_s": compiled_cycles / compiled_s if compiled_cycles else 0.0,
            "engine.jobs_ok": counts.get("engine.jobs_ok", 0),
            "engine.jobs_skipped": counts.get("engine.jobs_skipped", 0),
            "cache.get_s_per_hit": own.get("cache.get", 0.0) / hits if hits else 0.0,
            "cache.put_s_per_record": (
                own.get("cache.put", 0.0) / counts["cache.put.calls"] if counts.get("cache.put.calls") else 0.0
            ),
            "cache.bytes_written": run.bytes_written,
            "cache.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "synth.logic.minimize_calls": program.get("qm.calls", 0),
            "synth.logic.merge_operations": program.get("qm.merge_operations", 0),
            "synth.opt.cells_removed": counts.get("synth.opt.cells_removed", 0),
            "synth.buffering.buffers_inserted": counts.get("synth.buffering.buffers_inserted", 0),
            "verify.conflicts": counts.get("verify.conflicts", 0),
            "service.overhead_s": service_overhead(tracer),
            "service.records_streamed": counts.get("service.records_streamed", 0),
            "service.dedup_ratio": (
                program.get("scheduler.dedup_hits", 0) / run.requested_jobs if run.requested_jobs else 0.0
            ),
            # Only one service must never evaluate a point twice; separate
            # cold campaigns legitimately re-evaluate shared points.
            "service.duplicate_evaluations": (
                sum(n - 1 for n in evaluated if n > 1) if run.requested_jobs else 0
            ),
            "obs.trace_overhead_ratio": traced_wall / untraced_wall,
            "obs.traced_wall_s": traced_wall,
            "obs.untraced_wall_s": untraced_wall,
        }
    )
    return values


def traced_run(workload: str, seed: int, work: Path, trace_path: Path) -> Tuple[Dict[str, float], Pass, Tracer]:
    """Run one traced round of ``workload``; return per-layer metrics."""
    expected = plan.load_expected()
    import_layers()
    from repro.obs import metrics

    values: Dict[str, float] = {name: 0.0 for name in PER_LAYER_UNITS}
    values.update(cli_import_metrics(work))
    do_pass = PASSES[workload]

    # The first untraced pass warms the interpreter (Python specialises hot
    # code as it runs); the overhead ratio compares the traced pass with a
    # second, warm untraced pass.
    untraced = Pass(None)
    do_pass(untraced, seed, work, expected)

    tracer = Tracer()
    traced = Pass(tracer)
    patcher = Patcher(tracer)
    before = metrics.snapshot()
    install(patcher)
    try:
        start = time.perf_counter()
        do_pass(traced, seed, work, expected)
        traced_wall = time.perf_counter() - start
    finally:
        patcher.restore()
    program = metrics.counters_since(before)
    warm = Pass(None)
    start = time.perf_counter()
    do_pass(warm, seed, work, expected)
    untraced_wall = time.perf_counter() - start
    values.update(per_layer_metrics(tracer, traced, program, traced_wall, untraced_wall))
    if workload != "report":
        largest = max(traced.cache_dirs, key=_dir_bytes)
        values.update(load_metrics(largest))
    if workload == "sweep_cold":
        values.update(engine_metrics())
    for untraced_pass in (untraced, warm):
        traced.attempted += untraced_pass.attempted
        traced.failed += untraced_pass.failed
        traced.problems += untraced_pass.problems
    for directory in untraced.cache_dirs + traced.cache_dirs + warm.cache_dirs:
        shutil.rmtree(directory, ignore_errors=True)
    tracer.write_chrome_trace(str(trace_path))
    return values, traced, tracer
