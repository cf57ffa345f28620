"""Result cache: torn-line recovery, writer segments, locking, stress."""

import json
import multiprocessing
import os
import threading
import time

import pytest

from repro.engine import cache as cache_module
from repro.engine.cache import CacheLock, CacheLockTimeout, ResultCache
from repro.obs import metrics


def _fill(cache, count, prefix="k", value=0):
    for i in range(count):
        cache.put(f"{prefix}{i}", {"value": value + i})


# --------------------------------------------------------------- torn lines
def test_truncated_trailing_line_keeps_live_prefix(tmp_path, capsys):
    """A crash mid-append must not poison the whole cache."""
    cache = ResultCache(str(tmp_path))
    _fill(cache, 3)
    [segment] = cache.data_paths()  # the writer's own segment
    with open(segment, "a", encoding="utf-8") as handle:
        handle.write('{"key": "k3", "record": {"val')  # torn append

    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == 3
    assert reloaded.get("k0") == {"value": 0}
    assert "k3" not in reloaded
    err = capsys.readouterr().err
    assert "undecodable cache line" in err
    assert "line=4" in err


def test_torn_line_mid_file_skips_only_that_line(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 2)
    [segment] = cache.data_paths()
    lines = open(segment, encoding="utf-8").read().splitlines()
    lines.insert(1, "{nonsense")
    with open(segment, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    before = metrics.counter("cache.torn_lines")
    reloaded = ResultCache(str(tmp_path))
    assert sorted(reloaded.keys()) == ["k0", "k1"]
    assert metrics.counter("cache.torn_lines") == before + 1


# ----------------------------------------------------------------- segments
def test_sharded_backend_writes_per_writer_segments(tmp_path):
    a = ResultCache(str(tmp_path))
    b = ResultCache(str(tmp_path))
    a.put("ka", {"v": 1})
    a.put("ka2", {"v": 3})
    b.put("kb", {"v": 2})
    segments = sorted(os.listdir(tmp_path / "segments"))
    # One segment per cache instance, named after the writing process.
    assert len(segments) == 2
    assert all(name.startswith(f"seg-{os.getpid()}-") for name in segments)
    assert all(name.endswith(".jsonl") for name in segments)
    assert not os.path.exists(tmp_path / "results.jsonl")  # only compact() writes it
    assert ResultCache(str(tmp_path), backend="sharded").get("ka") == {"v": 1}
    for backend in ("jsonl", "bogus"):  # the single-file append mode is gone
        with pytest.raises(ValueError, match="unknown cache backend"):
            ResultCache(str(tmp_path), backend=backend)
    # A fresh cache reads every writer's segment.
    reader = ResultCache(str(tmp_path))
    assert reader.get("ka") == {"v": 1}
    assert reader.get("kb") == {"v": 2}


def test_segment_record_format_matches_base_format(tmp_path):
    """Same JSON line layout in segments as in the seed results.jsonl."""
    cache = ResultCache(str(tmp_path))
    cache.put("k", {"status": "ok", "delay_ns": 1.5})
    [segment] = cache.data_paths()
    segment_text = open(segment, encoding="utf-8").read()
    assert segment_text == '{"key": "k", "record": {"delay_ns": 1.5, "status": "ok"}}\n'
    cache.compact()  # the base file takes the segment's line verbatim
    assert open(tmp_path / "results.jsonl", encoding="utf-8").read() == segment_text


def test_existing_jsonl_directory_loads_under_sharded_backend(tmp_path):
    """A base file an older version appended to loads, then takes segment writes."""
    legacy = tmp_path / "results.jsonl"
    legacy.write_text(
        "".join(
            json.dumps({"key": f"k{i}", "record": {"value": i}}, sort_keys=True) + "\n"
            for i in range(4)
        )
        + '{"key": "k0", "record": {"value": 10}}\n',  # a superseding append
        encoding="utf-8",
    )
    legacy_bytes = legacy.read_bytes()
    cache = ResultCache(str(tmp_path))
    assert len(cache) == 4 and cache.get("k0") == {"value": 10}
    cache.put("extra", {"value": 99})
    assert legacy.read_bytes() == legacy_bytes  # appends go to a segment
    reader = ResultCache(str(tmp_path))
    assert len(reader) == 5 and reader.get("extra") == {"value": 99}
    assert reader.get("k3") == {"value": 3}


def test_compact_merges_segments_into_base(tmp_path):
    a = ResultCache(str(tmp_path))
    b = ResultCache(str(tmp_path))
    _fill(a, 3, prefix="a")
    _fill(b, 3, prefix="b")
    a.put("shared", {"value": 1})
    b.put("shared", {"value": 1})  # overlapping key: content-hash, same record

    a.compact()
    assert os.listdir(tmp_path / "segments") == []
    merged = ResultCache(str(tmp_path))
    assert len(merged) == 7
    assert merged.get("shared") == {"value": 1}
    assert merged.get("b2") == {"value": 2}
    # The compacted base file is plain seed-format JSONL.
    with open(merged.path, encoding="utf-8") as handle:
        for line in handle:
            entry = json.loads(line)
            assert set(entry) == {"key", "record"}


def test_compact_preserves_records_from_unseen_writers(tmp_path):
    """Compaction re-reads from disk, so it cannot lose a concurrent write."""
    mine = ResultCache(str(tmp_path))
    _fill(mine, 2)
    # Another process appends after this instance loaded its view.
    other = ResultCache(str(tmp_path))
    other.put("theirs", {"value": 42})
    assert "theirs" not in mine._records  # never seen by `mine`
    mine.compact()
    assert mine.get("theirs") == {"value": 42}
    assert ResultCache(str(tmp_path)).get("theirs") == {"value": 42}


# -------------------------------------------------------------------- locks
def test_cache_lock_times_out_when_held(tmp_path):
    with CacheLock(str(tmp_path), stale_after_s=9999):
        contender = CacheLock(str(tmp_path), timeout=0.05, stale_after_s=9999)
        with pytest.raises(CacheLockTimeout):
            contender.acquire()
    # Released: acquisition now succeeds immediately.
    with CacheLock(str(tmp_path), timeout=0.05):
        pass


def test_cache_lock_breaks_stale_holder(tmp_path, capsys):
    lock_path = tmp_path / "cache.lock"
    with open(lock_path, "w", encoding="utf-8") as handle:
        handle.write("999999999")  # no such pid
    with CacheLock(str(tmp_path), timeout=1.0):
        pass  # acquired by breaking the dead holder's lock
    assert "breaking stale cache lock" in capsys.readouterr().err


def test_put_waits_for_a_running_compaction(tmp_path, monkeypatch):
    """A put racing compact() waits for the lock, so its record is not lost.

    The compactor is held between its merge snapshot and the rewrite of the
    base file; an append that skipped the lock would land in a file the
    rewrite then replaces without it.
    """
    compactor = ResultCache(str(tmp_path))
    compactor.put("k1", {"value": 1})
    at_merge, resume = threading.Event(), threading.Event()
    real_fault_point = cache_module.fault_point

    def gate(site):
        if site == "cache.compact.merge":
            at_merge.set()
            assert resume.wait(10)
        real_fault_point(site)

    monkeypatch.setattr(cache_module, "fault_point", gate)
    compaction = threading.Thread(target=compactor.compact)
    compaction.start()
    assert at_merge.wait(10)
    writer = threading.Thread(
        target=ResultCache(str(tmp_path)).put, args=("k2", {"value": 2})
    )
    writer.start()
    writer.join(0.2)
    blocked = writer.is_alive()
    resume.set()
    compaction.join(10)
    writer.join(10)
    assert blocked  # the put waited on the compactor's lock
    assert not writer.is_alive()
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("k1") == {"value": 1}
    assert reloaded.get("k2") == {"value": 2}


def test_compact_waits_for_lock_release(tmp_path):
    cache = ResultCache(str(tmp_path))
    _fill(cache, 2)
    held = CacheLock(str(tmp_path), stale_after_s=9999).acquire()
    release_timer = threading.Timer(0.1, held.release)
    release_timer.start()
    try:
        cache.compact()  # blocks until the timer releases, then succeeds
    finally:
        release_timer.cancel()
    assert len(ResultCache(str(tmp_path))) == 2


def test_in_memory_cache_has_no_lock():
    with pytest.raises(ValueError, match="no lock"):
        ResultCache(None).lock()


# ------------------------------------------------------------------- stress
def test_multi_writer_thread_stress(tmp_path):
    """Concurrent threads with private sharded writers: no record lost."""
    writers = 8
    per_writer = 25

    def work(index):
        cache = ResultCache(str(tmp_path))
        for i in range(per_writer):
            cache.put(f"w{index}-k{i}", {"writer": index, "i": i})  # disjoint
            cache.put("overlap", {"value": "same"})  # overlapping

    threads = [threading.Thread(target=work, args=(i,)) for i in range(writers)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()

    merged = ResultCache(str(tmp_path))
    assert len(merged) == writers * per_writer + 1
    assert merged.get("overlap") == {"value": "same"}
    merged.compact()
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == writers * per_writer + 1
    assert reloaded.get("w3-k7") == {"writer": 3, "i": 7}


def _process_writer(directory, index, per_writer):
    cache = ResultCache(directory)
    for i in range(per_writer):
        cache.put(f"p{index}-k{i}", {"writer": index, "i": i})
        cache.put(f"shared-{i % 3}", {"value": i % 3})


def test_multi_writer_process_stress(tmp_path):
    """Separate processes appending to one cache dir: compact + reload clean."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        pytest.skip("fork start method unavailable")
    writers, per_writer = 4, 10
    processes = [
        ctx.Process(target=_process_writer, args=(str(tmp_path), i, per_writer))
        for i in range(writers)
    ]
    for process in processes:
        process.start()
    for process in processes:
        process.join(30)
        assert process.exitcode == 0

    merged = ResultCache(str(tmp_path))
    assert len(merged) == writers * per_writer + 3
    merged.compact()
    assert os.listdir(tmp_path / "segments") == []
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == writers * per_writer + 3
    for i in range(3):
        assert reloaded.get(f"shared-{i}") == {"value": i}


def _slow_process_writer(directory, index, per_writer):
    cache = ResultCache(directory)
    for i in range(per_writer):
        cache.put(f"p{index}-k{i}", {"writer": index, "i": i})
        time.sleep(0.002)  # stretch the run so compactions overlap appends


def _killed_compactor(directory, site):
    from repro.resilience.faults import FaultPlan, FaultRule, install_plan

    install_plan(FaultPlan([FaultRule(site=site, action="exit")]))
    ResultCache(directory).compact()


def test_concurrent_writers_survive_killed_compactions(tmp_path):
    """Compactors kill -9'd at every commit-protocol point, under live
    concurrent appenders: every acknowledged record survives, the dead
    compactors' stale locks are broken, and a final compaction converges."""
    try:
        ctx = multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        pytest.skip("fork start method unavailable")
    writers, per_writer = 4, 25
    appenders = [
        ctx.Process(
            target=_slow_process_writer, args=(str(tmp_path), i, per_writer)
        )
        for i in range(writers)
    ]
    for process in appenders:
        process.start()
    # Three compaction attempts die mid-flight while the appenders run.
    for site in (
        "cache.compact.merge",
        "cache.compact.commit",
        "cache.compact.cleanup",
    ):
        compactor = ctx.Process(target=_killed_compactor, args=(str(tmp_path), site))
        compactor.start()
        compactor.join(30)
        assert compactor.exitcode == 86  # the exit action's default code
    for process in appenders:
        process.join(60)
        assert process.exitcode == 0

    expected = {
        f"p{index}-k{i}": {"writer": index, "i": i}
        for index in range(writers)
        for i in range(per_writer)
    }
    merged = ResultCache(str(tmp_path))
    assert {key: merged.get(key) for key in expected} == expected
    assert len(merged) == len(expected)
    merged.compact()  # the survivors' compaction finishes the job
    assert os.listdir(tmp_path / "segments") == []
    reloaded = ResultCache(str(tmp_path))
    assert len(reloaded) == len(expected)
    assert reloaded.get("p3-k7") == {"writer": 3, "i": 7}
