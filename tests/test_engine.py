"""Tests for the campaign engine: jobs, cache, runner, sweeps and CLI."""

import random

import pytest

from repro.cli import main
from repro.engine.cache import ResultCache
from repro.engine.jobs import Campaign, EvalJob, STYLE_VARIANTS, build_design
from repro.engine.pareto import pareto_indices, pareto_min
from repro.engine.records import EvalRecord
from repro.engine.runner import CampaignRunner, evaluate_job, evaluate_point
from repro.flow import FlowSpec
from repro.engine.sweep import (
    available_campaigns,
    build_campaign,
    campaign_description,
)
from repro.workloads.registry import available_workloads, build_pattern


# ---------------------------------------------------------------------------
# Job keys
# ---------------------------------------------------------------------------

def test_job_key_is_stable_and_deterministic():
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    assert job.key == EvalJob("fifo", 4, 4, "SRAG", "two-hot").key
    assert len(job.key) == 64
    int(job.key, 16)  # hex digest


def test_job_key_distinguishes_every_axis():
    base = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    variants = [
        EvalJob("dct", 4, 4, "SRAG", "two-hot"),
        EvalJob("fifo", 8, 4, "SRAG", "two-hot"),
        EvalJob("fifo", 4, 8, "SRAG", "two-hot"),
        EvalJob("fifo", 4, 4, "CntAG", "decoders"),
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(library="std018_lp")),
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(opt_level=1)),
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(power_cycles=64)),
        EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(max_fsm_states=1024)),
    ]
    keys = {base.key} | {job.key for job in variants}
    assert len(keys) == len(variants) + 1


def test_job_key_covers_library_characterisation(monkeypatch):
    """Recalibrating a library must invalidate its cached results: a job
    built against the recalibrated registry gets a different key."""
    from repro.synth import cell_library

    key_before = EvalJob("fifo", 4, 4, "SRAG", "two-hot").key
    scaled = cell_library.STD018.scaled("std018", area_scale=2.0)
    monkeypatch.setitem(cell_library.LIBRARIES, "std018", scaled)
    assert EvalJob("fifo", 4, 4, "SRAG", "two-hot").key != key_before


def test_grid_expansion_covers_cross_product():
    campaign = Campaign.from_grid(
        "grid",
        workloads=("fifo", "dct"),
        geometries=((4, 4), (8, 8)),
        libraries=("std018", "std018_lp"),
    )
    assert len(campaign) == 2 * 2 * 2 * len(STYLE_VARIANTS)
    assert len({job.key for job in campaign}) == len(campaign)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_evaluate_job_ok_and_skipped():
    ok = evaluate_job(EvalJob("fifo", 4, 4, "SRAG", "two-hot"))
    assert ok.status == "ok"
    assert ok.delay_ns > 0 and ok.area_cells > 0 and ok.flip_flops > 0

    skipped = evaluate_job(EvalJob("dct", 4, 4, "SFM", "pointers"))
    assert skipped.status == "skipped"
    assert skipped.note


def test_evaluate_job_respects_max_fsm_states():
    record = evaluate_job(EvalJob("fifo", 4, 4, "FSM", "binary", FlowSpec(max_fsm_states=4)))
    assert record.status == "skipped"
    assert "max_fsm_states" in record.note


def test_build_design_matches_explorer_styles():
    pattern = build_pattern("fifo", 4, 4)
    design = build_design(pattern, "CntAG", "adders")
    assert design.style == "CntAG"
    with pytest.raises(KeyError):
        build_design(pattern, "SRAG", "nope")


def test_record_round_trips_through_dict():
    record = evaluate_job(EvalJob("fifo", 4, 4, "SRAG", "two-hot"))
    rebuilt = EvalRecord.from_dict(record.to_dict(), cached=True)
    assert rebuilt.cached and not record.cached
    assert rebuilt.to_dict() == record.to_dict()


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_hit_miss_and_persistence(tmp_path):
    cache = ResultCache(str(tmp_path / "cache"))
    assert cache.get("k") is None and "k" not in cache
    cache.put("k", {"value": 1})
    assert cache.get("k") == {"value": 1} and "k" in cache

    reloaded = ResultCache(str(tmp_path / "cache"))
    assert reloaded.get("k") == {"value": 1}
    assert len(reloaded) == 1


def test_cache_last_write_wins_and_compact(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("k", {"value": 1})
    cache.put("k", {"value": 2})
    assert ResultCache(str(tmp_path)).get("k") == {"value": 2}
    [segment] = cache.data_paths()  # appends land in the writer's segment
    assert sum(1 for _ in open(segment)) == 2
    cache.compact()
    assert cache.data_paths() == [cache.path]
    assert sum(1 for _ in open(cache.path)) == 1
    assert ResultCache(str(tmp_path)).get("k") == {"value": 2}


def test_cache_tolerates_torn_final_line(tmp_path):
    cache = ResultCache(str(tmp_path))
    cache.put("k", {"value": 1})
    with open(cache.path, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn", "rec')  # killed mid-write
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("k") == {"value": 1}
    assert "torn" not in reloaded


def test_in_memory_cache_does_not_persist():
    cache = ResultCache(None)
    cache.put("k", {"value": 1})
    assert cache.path is None
    assert cache.get("k") == {"value": 1}


def test_empty_cache_directory_is_refused(tmp_path, monkeypatch):
    """An empty path would put segments/ and results.jsonl in the cwd."""
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match="cache directory is empty"):
        ResultCache("")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------

def _tiny_campaign():
    return Campaign.from_grid(
        "tiny",
        workloads=("fifo",),
        geometries=((4, 4),),
        styles=(("SRAG", "two-hot"), ("CntAG", "decoders"), ("SFM", "pointers")),
    )


def test_second_run_is_all_cache_hits(tmp_path):
    cache = ResultCache(str(tmp_path))
    cold = CampaignRunner(cache, workers=0).run(_tiny_campaign())
    assert cold.hits == 0 and cold.evaluated == len(cold.records)

    warm = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(_tiny_campaign())
    assert warm.hits == len(warm.records) and warm.evaluated == 0
    assert [r.to_dict() for r in warm.records] == [r.to_dict() for r in cold.records]


def test_error_records_are_not_cached(tmp_path, monkeypatch):
    """A transient failure must be retried on the next run, not replayed."""
    from repro.engine import runner as runner_module

    campaign = Campaign("one", [EvalJob("fifo", 4, 4, "SRAG", "two-hot")])
    job = campaign.jobs[0]

    def explode(j):
        return EvalRecord(
            workload=j.workload, rows=j.rows, cols=j.cols, style=j.style,
            variant=j.variant, library=j.spec.library, key=j.key,
            status="error", note="transient worker failure",
        )

    monkeypatch.setattr(runner_module, "evaluate_job", explode)
    first = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(campaign)
    assert first.records[0].status == "error"
    assert job.key not in ResultCache(str(tmp_path))

    monkeypatch.undo()
    second = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(campaign)
    assert second.records[0].status == "ok" and second.hits == 0


def test_force_re_evaluates_despite_cache(tmp_path):
    cache = ResultCache(str(tmp_path))
    CampaignRunner(cache, workers=0).run(_tiny_campaign())
    forced = CampaignRunner(cache, workers=0).run(_tiny_campaign(), force=True)
    assert forced.hits == 0


def test_serial_and_parallel_runs_are_identical():
    campaign = build_campaign("smoke")
    serial = CampaignRunner(ResultCache(None), workers=0).run(campaign)
    parallel = CampaignRunner(ResultCache(None), workers=4).run(campaign)

    def strip(result):
        # duration_s is wall-clock and legitimately differs between runs;
        # NaN metrics (skipped points) are mapped to None so they compare equal
        return [
            {
                k: None if isinstance(v, float) and v != v else v
                for k, v in r.to_dict().items()
                if k != "duration_s"
            }
            for r in result.records
        ]

    assert strip(serial) == strip(parallel)
    assert {
        group: [r.key for r in front]
        for group, front in serial.pareto_fronts().items()
    } == {
        group: [r.key for r in front]
        for group, front in parallel.pareto_fronts().items()
    }


class _FakePool:
    """Stand-in process pool: runs batches inline, failing selected jobs.

    ``submit`` returns real ``concurrent.futures.Future`` objects so the
    runner's ``as_completed`` loop is exercised unchanged.
    """

    def __init__(self, fail=lambda job: None):
        self.fail = fail
        self.submissions = []

    def submit(self, fn, batch, *args):
        import concurrent.futures

        self.submissions.append(list(batch))
        future = concurrent.futures.Future()
        errors = [e for e in (self.fail(job) for job in batch) if e is not None]
        if errors:
            future.set_exception(errors[0])
        else:
            future.set_result(fn(batch, *args))
        return future

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_one_failing_batch_does_not_abort_the_campaign(tmp_path, capsys):
    """Satellite regression: a raising future is recovered, not fatal.

    A future-level failure cannot be pinned on a single job of the batch,
    so the runner re-evaluates that batch in-process: healthy jobs still
    produce (and cache) real records instead of misclassified failures.
    """
    # 16 jobs over 2 workers: the heuristic dispatches batches of 2.
    campaign = build_campaign("smoke")
    doomed = campaign.jobs[1]
    runner = CampaignRunner(ResultCache(str(tmp_path)), workers=2)
    pool = _FakePool(
        fail=lambda job: RuntimeError("worker exploded")
        if job.key == doomed.key
        else None
    )
    runner.scheduler._pool = pool
    result = runner.run(campaign)
    [failed_batch] = [b for b in pool.submissions if doomed in b]
    assert len(failed_batch) >= 2
    assert len(result.records) == len(campaign.jobs)
    # The diagnostic is structured logging on stderr, never stdout (stdout
    # is reserved for the report a caller might be piping somewhere).
    captured = capsys.readouterr()
    assert "worker exploded" in captured.err
    assert captured.out == ""
    # Every job of the failed batch was re-evaluated in-process: the whole
    # campaign completes with real statuses, nothing marked from the crash.
    statuses = {r.key: r.status for r in result.records}
    assert statuses[doomed.key] == "ok"
    assert all(status in ("ok", "skipped") for status in statuses.values())
    assert doomed.key in ResultCache(str(tmp_path))
    # The retried records are cached like any other.
    warm = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(campaign)
    assert warm.hits == len(campaign.jobs)


def test_chunked_dispatch_batches_jobs(tmp_path):
    campaign = build_campaign("smoke")
    runner = CampaignRunner(ResultCache(str(tmp_path)), workers=2)
    pool = _FakePool()
    runner.scheduler._pool = pool
    result = runner.run(campaign)
    # 16 jobs / (2 workers * 4) -> batches of 2, in campaign order.
    assert [len(batch) for batch in pool.submissions] == [2] * 8
    assert [job for batch in pool.submissions for job in batch] == list(campaign.jobs)
    assert all(r.status in ("ok", "skipped") for r in result.records)


def test_chunking_heuristic_batch_shapes():
    def shapes(workers, jobs):
        scheduler = CampaignRunner(ResultCache(None), workers=workers).scheduler
        batches = scheduler._chunked(jobs)
        assert [job for batch in batches for job in batch] == jobs
        return [len(b) for b in batches]

    jobs = list(range(32))  # _chunked only slices, any payload works
    assert shapes(4, jobs) == [2] * 16  # 32 jobs / (4 workers * 4) -> size 2
    assert shapes(2, list(range(42))) == [5] * 8 + [2]  # 42 // 8 -> size 5
    # Fewer jobs than 4 batches per worker: one job per future.
    assert shapes(2, jobs[:2]) == [1, 1]
    assert shapes(4, jobs[:15]) == [1] * 15


def test_pool_persists_across_runs_and_closes():
    campaign = _tiny_campaign()
    with CampaignRunner(ResultCache(None), workers=2) as runner:
        runner.run(campaign)
        pool_after_first = runner.scheduler._pool
        runner.run(campaign, force=True)
        assert runner.scheduler._pool is pool_after_first
        if pool_after_first is None:
            pytest.skip("process pools unavailable in this environment")
    assert runner.scheduler._pool is None  # context exit shut the pool down
    runner.close()  # idempotent


def test_progress_counts_duplicate_jobs(tmp_path):
    """Regression: duplicate uncached jobs must each fire the callback."""
    job = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    campaign = Campaign("dups", [job, job, EvalJob("fifo", 4, 4, "CntAG", "decoders")])
    seen = []
    runner = CampaignRunner(
        ResultCache(str(tmp_path)),
        workers=0,
        progress=lambda record, done, total: seen.append((record.key, done, total)),
    )
    result = runner.run(campaign)
    assert len(result.records) == 3
    assert result.records[0].to_dict() == result.records[1].to_dict()
    # Every job fired exactly once, done reached total.
    assert [done for _, done, _ in seen] == [1, 2, 3]
    assert all(total == 3 for _, _, total in seen)
    assert [key for key, _, _ in seen].count(job.key) == 2

    # Same campaign again: duplicates now come from the cache, still 3 events.
    seen.clear()
    runner.run(campaign)
    assert [done for _, done, _ in seen] == [1, 2, 3]


def test_progress_callback_sees_every_record(tmp_path):
    campaign = _tiny_campaign()
    seen = []
    runner = CampaignRunner(
        ResultCache(str(tmp_path)),
        workers=0,
        progress=lambda record, done, total: seen.append((record.key, done, total)),
    )
    runner.run(campaign)
    assert len(seen) == len(campaign)
    assert [done for _, done, _ in seen] == list(range(1, len(campaign) + 1))


def test_campaign_result_groups_and_describe(tmp_path):
    result = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(
        build_campaign("smoke")
    )
    groups = result.groups()
    assert ("fifo", 4, 4, "std018") in groups
    assert ("dct", 4, 4, "std018") in groups
    for front in result.pareto_fronts().values():
        assert front
    text = result.describe()
    assert "cache hits" in text and "fifo 4x4" in text


def test_power_jobs_record_power_metrics():
    record = evaluate_job(
        EvalJob("fifo", 4, 4, "CntAG", "decoders", FlowSpec(power_cycles=64))
    )
    assert record.status == "ok"
    assert record.energy_per_access_fj > 0
    assert record.avg_power_uw > 0
    assert record.has_power

    plain = evaluate_job(EvalJob("fifo", 4, 4, "CntAG", "decoders"))
    assert plain.status == "ok"
    assert not plain.has_power  # NaN without the power study


def test_power_is_measured_on_the_buffered_netlist():
    """All metrics in one record must describe the same (buffered) structure."""
    from repro.synth.power import estimate_power
    from repro.workloads.registry import build_pattern

    job = EvalJob("motion_est_read", 16, 16, "SRAG", "two-hot", FlowSpec(power_cycles=32))
    record = evaluate_job(job)
    assert record.status == "ok" and record.buffers_inserted > 0

    design = build_design(build_pattern(job.workload, job.rows, job.cols),
                          job.style, job.variant)
    synth = design.synthesize(spec=job.spec)
    buffered = estimate_power(synth.netlist, cycles=32)
    unbuffered = estimate_power(design.netlist, cycles=32)
    assert record.energy_per_access_fj == buffered.energy_per_access_fj
    assert record.energy_per_access_fj != unbuffered.energy_per_access_fj


def test_power_cycles_only_changes_key_when_enabled():
    """Old cache entries for non-power jobs must keep matching."""
    base = EvalJob("fifo", 4, 4, "SRAG", "two-hot")
    assert EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(power_cycles=0)).key == base.key
    assert "power_cycles" not in base.to_spec()
    powered = EvalJob("fifo", 4, 4, "SRAG", "two-hot", FlowSpec(power_cycles=256))
    assert powered.key != base.key
    assert powered.to_spec()["power_cycles"] == 256


def test_record_from_dict_tolerates_pre_power_cache_entries():
    """Round-trip a cache dict written before the power fields existed."""
    record = evaluate_job(EvalJob("fifo", 4, 4, "SRAG", "two-hot"))
    old_style = {
        k: v
        for k, v in record.to_dict().items()
        if k not in ("energy_per_access_fj", "avg_power_uw")
    }
    rebuilt = EvalRecord.from_dict(old_style, cached=True)
    assert rebuilt.cached
    assert not rebuilt.has_power
    assert rebuilt.delay_ns == record.delay_ns
    # And it round-trips forward through the current format.
    assert EvalRecord.from_dict(rebuilt.to_dict()).to_dict() == rebuilt.to_dict()


def test_power_campaign_runs_and_describes_power(tmp_path):
    campaign = build_campaign("power")
    assert all(job.spec.power_cycles == 256 for job in campaign)
    # Trim to one geometry to keep the unit test fast; the full campaign is
    # exercised by the CLI test and the CI workflow.
    small = Campaign("power", [job for job in campaign if job.rows == 4])
    result = CampaignRunner(ResultCache(str(tmp_path)), workers=0).run(small)
    ok = result.ok_records()
    assert ok and all(r.has_power for r in ok)
    assert "e/access" in result.describe()


def test_registered_campaigns_all_build():
    for name in available_campaigns():
        campaign = build_campaign(name)
        assert campaign.name == name
        assert len(campaign) > 0
        for job in campaign:
            assert job.workload in available_workloads()


def test_importing_sweep_builds_no_campaigns(monkeypatch):
    """Regression: registration must be lazy -- importing ``repro.engine``
    used to expand all eight campaign grids just to read their names."""
    import importlib

    import repro.engine.sweep as sweep_module

    built = []
    original_init = Campaign.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original_init(self, *args, **kwargs)

    monkeypatch.setattr(Campaign, "__init__", counting_init)
    importlib.reload(sweep_module)
    assert built == [], "import-time registration expanded a campaign grid"
    # Listing names and descriptions must stay grid-free too.
    for name in sweep_module.available_campaigns():
        sweep_module.campaign_description(name)
    assert built == []
    # Grids are only expanded on demand, and the registry is intact.
    campaign = sweep_module.build_campaign("smoke")
    assert built and campaign.name == "smoke"
    assert set(sweep_module.available_campaigns()) == set(available_campaigns())


def test_campaign_descriptions_are_registered():
    for name in available_campaigns():
        assert campaign_description(name), f"campaign {name!r} registered without a description"
    assert campaign_description("no_such_campaign") == ""


def test_build_campaign_rejects_name_mismatch(monkeypatch):
    import repro.engine.sweep as sweep_module

    monkeypatch.setitem(
        sweep_module.CAMPAIGNS, "liar", lambda: Campaign("truth", [])
    )
    with pytest.raises(ValueError, match="liar"):
        sweep_module.build_campaign("liar")


# ---------------------------------------------------------------------------
# Logic optimization as a campaign axis
# ---------------------------------------------------------------------------

def test_opt_level_only_changes_key_when_enabled():
    """Every pre-optimization cache entry must keep matching its job."""
    base = EvalJob("fifo", 4, 4, "CntAG", "decoders")
    assert EvalJob("fifo", 4, 4, "CntAG", "decoders", FlowSpec(opt_level=0)).key == base.key
    assert "opt_level" not in base.to_spec()
    optimized = EvalJob("fifo", 4, 4, "CntAG", "decoders", FlowSpec(opt_level=1))
    assert optimized.key != base.key
    assert optimized.to_spec()["opt_level"] == 1
    assert optimized.label.endswith(" O1")
    assert not base.label.endswith(" O1")


def test_optimized_jobs_record_the_win():
    raw = evaluate_job(EvalJob("fifo", 8, 8, "CntAG", "decoders"))
    opt = evaluate_job(EvalJob("fifo", 8, 8, "CntAG", "decoders", FlowSpec(opt_level=1)))
    assert raw.status == opt.status == "ok"
    assert raw.opt_level == 0 and raw.opt_cells_removed == 0
    assert opt.opt_level == 1 and opt.opt_cells_removed > 0
    assert opt.total_cells < raw.total_cells
    assert opt.area_cells < raw.area_cells
    assert opt.label.endswith(" O1")
    # The cached form only grows the new fields when optimization ran.
    assert "opt_level" not in raw.to_dict()
    assert opt.to_dict()["opt_cells_removed"] == opt.opt_cells_removed
    # Pre-optimization cache entries round-trip to defaulted records.
    rebuilt = EvalRecord.from_dict(raw.to_dict(), cached=True)
    assert rebuilt.opt_level == 0 and rebuilt.opt_cells_removed == 0
    assert EvalRecord.from_dict(opt.to_dict()).to_dict() == opt.to_dict()


def test_opt_levels_campaign_pairs_every_point():
    campaign = build_campaign("opt_levels")
    by_level = {}
    for job in campaign:
        by_level.setdefault(job.spec.opt_level, set()).add(
            (job.workload, job.rows, job.cols, job.style, job.variant)
        )
    assert set(by_level) == {0, 1}
    assert by_level[0] == by_level[1]


# ---------------------------------------------------------------------------
# Pareto sweep
# ---------------------------------------------------------------------------

def _brute_force_front(objectives):
    front = []
    for i, (x, y) in enumerate(objectives):
        dominated = any(
            ox <= x and oy <= y and (ox < x or oy < y) for ox, oy in objectives
        )
        if not dominated:
            front.append(i)
    return front


def test_pareto_sweep_matches_brute_force():
    rng = random.Random(42)
    for _ in range(50):
        objectives = [
            (rng.randrange(10) / 2.0, rng.randrange(10) / 2.0)
            for _ in range(rng.randrange(1, 40))
        ]
        assert pareto_indices(objectives) == _brute_force_front(objectives)


def test_pareto_sweep_keeps_duplicate_frontier_points():
    objectives = [(1.0, 2.0), (1.0, 2.0), (2.0, 1.0), (2.0, 2.0)]
    assert pareto_indices(objectives) == [0, 1, 2]


def test_pareto_sweep_keeps_nan_points():
    nan = float("nan")
    assert pareto_indices([(1.0, 1.0), (nan, 2.0), (2.0, 2.0)]) == [0, 1]


def test_pareto_min_returns_the_items_on_the_front():
    a, b, c = ("A", 1.0, 100.0), ("B", 2.0, 50.0), ("C", 2.5, 200.0)
    assert pareto_min([a, b, c], key=lambda item: item[1:]) == [a, b]
    assert pareto_min([a], key=lambda item: item[1:]) == [a]


# ---------------------------------------------------------------------------
# CLI round-trips
# ---------------------------------------------------------------------------

def test_cli_list_campaigns(capsys):
    assert main(["--list-campaigns"]) == 0
    out = capsys.readouterr().out
    assert "demo" in out and "smoke" in out


def test_cli_campaign_cold_then_warm(tmp_path, capsys):
    cache_dir = str(tmp_path / "cache")
    assert main(["--campaign", "smoke", "--cache-dir", cache_dir, "--serial"]) == 0
    cold = capsys.readouterr().out
    assert "cache hits 0/16" in cold

    assert main(["--campaign", "smoke", "--cache-dir", cache_dir, "--serial"]) == 0
    warm = capsys.readouterr().out
    assert "cache hits 16/16" in warm
    # Metrics identical across the two runs.
    assert cold.split("cache hits")[1].splitlines()[1:] == \
        warm.split("cache hits")[1].splitlines()[1:]


def test_cli_campaign_quiet_suppresses_progress(tmp_path, capsys):
    assert main([
        "--campaign", "smoke", "--cache-dir", str(tmp_path), "--serial", "--quiet",
    ]) == 0
    out = capsys.readouterr().out
    assert "[ 1/16]" not in out
    assert "cache hits" in out


def test_cli_explore_still_works(capsys):
    assert main(["--workload", "fifo", "--rows", "4", "--cols", "4", "--explore"]) == 0
    out = capsys.readouterr().out
    assert "design space" in out and "SRAG" in out


def test_cli_requires_rows_cols_for_single_runs(capsys):
    with pytest.raises(SystemExit):
        main(["--workload", "fifo"])
    assert "generate mode requires --rows, --cols" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Synthesis flow no longer mutates its input netlist
# ---------------------------------------------------------------------------

def test_synthesize_is_idempotent_across_libraries():
    from repro.generators.srag_design import SragDesign
    from repro.workloads.fifo import incremental_sequence

    design = SragDesign(incremental_sequence(32))
    first = design.synthesize(spec=FlowSpec(library="std018"))
    other = design.synthesize(spec=FlowSpec(library="std018_lp"))
    again = design.synthesize(spec=FlowSpec(library="std018"))
    assert first.buffers_inserted == other.buffers_inserted == again.buffers_inserted
    assert first.area_cells == again.area_cells
    assert first.delay_ns == again.delay_ns


def test_run_synthesis_flow_leaves_netlist_untouched():
    from repro.generators.srag_design import SragDesign
    from repro.synth.flow import run_synthesis_flow
    from repro.workloads.fifo import incremental_sequence

    netlist = SragDesign(incremental_sequence(32)).elaborate()
    cells_before = set(netlist.cells)
    result = run_synthesis_flow(netlist)
    assert result.buffers_inserted > 0
    assert set(netlist.cells) == cells_before


@pytest.mark.parametrize("verify", [0, 1])
def test_evaluate_point_clones_only_what_the_flow_needs(monkeypatch, verify):
    """SRAG copies its generator's netlist; ``verify`` adds the golden copy."""
    from repro.hdl.netlist import Netlist

    clones = []
    real_clone = Netlist.clone

    def counting_clone(self):
        clones.append(self.name)
        return real_clone(self)

    monkeypatch.setattr(Netlist, "clone", counting_clone)
    for style, variant in STYLE_VARIANTS:
        clones.clear()
        record = evaluate_point(
            lambda: build_pattern("fifo", 4, 4), style, variant,
            FlowSpec(verify=verify), workload="fifo", rows=4, cols=4,
        )
        assert record.status == "ok", record.note
        expected = (1 if style == "SRAG" else 0) + verify
        assert len(clones) == expected, f"{style}[{variant}]: {clones}"


def test_netlist_clone_is_deep_and_equivalent():
    from repro.generators.srag_design import SragDesign
    from repro.synth.flow import run_synthesis_flow
    from repro.workloads.fifo import incremental_sequence

    netlist = SragDesign(incremental_sequence(64)).elaborate()
    clone = netlist.clone()
    assert clone is not netlist
    assert set(clone.cells) == set(netlist.cells)
    assert set(clone.nets) == set(netlist.nets)
    assert set(clone.inputs) == set(netlist.inputs)
    assert set(clone.outputs) == set(netlist.outputs)
    # Same synthesis result from the clone...
    original = run_synthesis_flow(netlist)
    cloned = run_synthesis_flow(clone)
    assert cloned.area_cells == original.area_cells
    assert cloned.delay_ns == original.delay_ns
    # ...and mutating the clone does not leak into the original.
    clone.add_input("fresh_input")
    assert "fresh_input" not in netlist.inputs
