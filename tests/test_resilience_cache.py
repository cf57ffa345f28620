"""Crash-safe cache: torn-write healing, kill-anywhere compaction, locks."""

import json
import multiprocessing
import os
import time

import pytest

from repro.engine.cache import CacheLock, CacheLockTimeout, ResultCache
from repro.obs import metrics
from repro.resilience.faults import FaultPlan, FaultRule, clear_plan, install_plan

KILL_CODE = 86  # the exit action's default


@pytest.fixture(autouse=True)
def disarmed():
    clear_plan()
    yield
    clear_plan()


def _fork_ctx():
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - platform dependent
        pytest.skip("fork start method unavailable")


# ---------------------------------------------------------------- torn writes
def test_torn_append_self_heals_without_losing_the_record(tmp_path):
    """An injected mid-write kill is retried; the record still lands whole."""
    cache = ResultCache(str(tmp_path))
    cache.put("before", {"value": 0})
    install_plan(FaultPlan([FaultRule(site="cache.append.write", action="torn")]))
    retries = metrics.counter("cache.append_retries")
    sealed = metrics.counter("cache.sealed_tails")
    cache.put("healed", {"value": 1})
    # One retry repaired it: the fragment was sealed, the full line landed.
    assert metrics.counter("cache.append_retries") == retries + 1
    assert metrics.counter("cache.sealed_tails") == sealed + 1
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("before") == {"value": 0}
    assert reloaded.get("healed") == {"value": 1}


def test_append_after_another_writers_torn_tail(tmp_path):
    """A fragment a killed writer left in its segment is skipped at load and
    never touches a new writer's records, which land in a segment of their own."""
    cache = ResultCache(str(tmp_path))
    cache.put("live", {"value": 1})
    [foreign] = cache.data_paths()
    with open(foreign, "a", encoding="utf-8") as handle:
        handle.write('{"key": "torn", "record": {"va')  # no trailing newline
    torn = metrics.counter("cache.torn_lines")
    sealed = metrics.counter("cache.sealed_tails")
    fresh = ResultCache(str(tmp_path))
    fresh.put("after", {"value": 2})
    assert metrics.counter("cache.torn_lines") == torn + 1
    assert metrics.counter("cache.sealed_tails") == sealed  # nothing to seal
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("live") == {"value": 1}
    assert reloaded.get("after") == {"value": 2}
    assert "torn" not in reloaded
    [own] = [path for path in reloaded.data_paths() if path != foreign]
    with open(own, encoding="utf-8") as handle:
        assert [json.loads(line)["key"] for line in handle] == ["after"]


def test_put_is_not_acknowledged_until_durable(tmp_path):
    """A put whose append keeps failing must leave the key invisible."""
    cache = ResultCache(str(tmp_path))
    install_plan(
        FaultPlan(
            [FaultRule(site="cache.append", exception="OSError", max_fires=None)]
        )
    )
    with pytest.raises(OSError):
        cache.put("ghost", {"value": 1})
    clear_plan()
    assert "ghost" not in cache._records  # never indexed in memory...
    assert "ghost" not in ResultCache(str(tmp_path))  # ...and never on disk


def test_failure_after_durability_is_benign(tmp_path):
    """A crash between fsync and the index ack leaves the line on disk.

    That is the at-least-once side of the protocol and it is harmless by
    design: keys are content hashes, so a re-put writes the identical
    record and the reader's last-line-wins fold converges.
    """
    cache = ResultCache(str(tmp_path))
    install_plan(
        FaultPlan(
            [FaultRule(site="cache.append.flush", exception="OSError", max_fires=None)]
        )
    )
    with pytest.raises(OSError):
        cache.put("k", {"value": 1})
    clear_plan()
    assert "k" not in cache._records  # the put was never acknowledged
    cache.put("k", {"value": 1})  # the caller's retry converges
    reloaded = ResultCache(str(tmp_path))
    assert reloaded.get("k") == {"value": 1}


def test_transient_lock_contention_on_sharded_append_is_retried(tmp_path):
    install_plan(FaultPlan([FaultRule(site="cache.lock.acquire")]))
    retries = metrics.counter("cache.append_retries")
    cache = ResultCache(str(tmp_path))
    cache.put("k", {"value": 1})
    assert metrics.counter("cache.append_retries") == retries + 1
    assert ResultCache(str(tmp_path)).get("k") == {"value": 1}


# --------------------------------------------------------- compaction kills
def _compact_with_kill(directory, site):
    """Child body: die (os._exit) exactly at ``site`` during compact()."""
    install_plan(FaultPlan([FaultRule(site=site, action="exit")]))
    ResultCache(directory).compact()


def _seed_sharded(tmp_path):
    expected = {f"base{i}": {"value": i} for i in range(3)}
    # A base file as an earlier compaction leaves it.
    (tmp_path / "results.jsonl").write_text(
        "".join(
            json.dumps({"key": key, "record": record}, sort_keys=True) + "\n"
            for key, record in expected.items()
        ),
        encoding="utf-8",
    )
    shard = ResultCache(str(tmp_path))
    for i in range(3):
        shard.put(f"seg{i}", {"value": 10 + i})
    expected.update({f"seg{i}": {"value": 10 + i} for i in range(3)})
    return expected


@pytest.mark.parametrize(
    "site", ["cache.compact.merge", "cache.compact.commit", "cache.compact.cleanup"]
)
def test_compaction_killed_at_any_point_loses_nothing(tmp_path, site):
    """kill -9 anywhere in compact(): the next load sees every record."""
    expected = _seed_sharded(tmp_path)
    ctx = _fork_ctx()
    child = ctx.Process(target=_compact_with_kill, args=(str(tmp_path), site))
    child.start()
    child.join(30)
    assert child.exitcode == KILL_CODE

    recovered = metrics.counter("cache.recovered_compactions")
    broken = metrics.counter("cache.locks_broken")
    reloaded = ResultCache(str(tmp_path))
    assert {key: reloaded.get(key) for key in expected} == expected
    if site == "cache.compact.commit":
        # Died after writing the temp file: the next load discards it
        # (breaking the dead child's lock to prove no compactor is live).
        assert metrics.counter("cache.recovered_compactions") == recovered + 1
        assert not os.path.exists(str(tmp_path / "results.jsonl.tmp"))

    # The cache is not wedged: the dead child's lock is broken (at load for
    # a commit kill, at re-acquire otherwise) and compaction converges.
    reloaded.compact()
    assert metrics.counter("cache.locks_broken") >= broken + 1
    assert os.listdir(tmp_path / "segments") == []
    final = ResultCache(str(tmp_path))
    assert {key: final.get(key) for key in expected} == expected


def test_live_compactions_temp_file_is_left_alone(tmp_path):
    """Recovery must not race a running compactor: lock held => hands off."""
    cache = ResultCache(str(tmp_path))
    cache.put("k", {"value": 1})
    tmp_file = tmp_path / "results.jsonl.tmp"
    tmp_file.write_text('{"key": "k", "record": {"value": 1}}\n')
    with CacheLock(str(tmp_path), stale_after_s=9999):  # a live compactor
        recovered = metrics.counter("cache.recovered_compactions")
        ResultCache(str(tmp_path)).get("k")
        assert metrics.counter("cache.recovered_compactions") == recovered
        assert tmp_file.exists()
    # Lock released (holder "died"): the next load reclaims the temp file.
    ResultCache(str(tmp_path)).get("k")
    assert not tmp_file.exists()


# ----------------------------------------------------------------- lock fixes
def test_stale_lock_break_logs_holder_pid_and_age(tmp_path, capsys):
    lock_path = tmp_path / "cache.lock"
    lock_path.write_text("999999999")
    os.utime(lock_path, (time.time() - 120, time.time() - 120))
    broken = metrics.counter("cache.locks_broken")
    with CacheLock(str(tmp_path), timeout=1.0):
        pass
    assert metrics.counter("cache.locks_broken") == broken + 1
    err = capsys.readouterr().err
    assert "breaking stale cache lock" in err
    assert "holder_pid=999999999" in err
    assert "holder_age_s=" in err


def test_vanishing_lock_respects_the_acquire_deadline(tmp_path):
    """The satellite bugfix: a repeatedly-vanishing lock file must not spin
    _break_if_stale past the acquire deadline -- it raises instead."""
    lock = CacheLock(str(tmp_path), timeout=0.05)
    # The lock file does not exist: stat() fails, the pre-fix code returned
    # silently forever.  With an expired deadline it must now raise.
    with pytest.raises(CacheLockTimeout, match="could not acquire"):
        lock._break_if_stale(deadline=time.monotonic() - 1.0)
    # No deadline (compaction-recovery probe): still a silent return.
    lock._break_if_stale()
    lock._break_if_stale(deadline=time.monotonic() + 60.0)
