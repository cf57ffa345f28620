"""Content-addressed on-disk result store.

Synthesising a design point takes orders of magnitude longer than reading a
cached record, so campaigns persist every evaluation keyed by the job's
content hash (:attr:`repro.engine.jobs.EvalJob.key`).  Re-running a campaign
then only evaluates points whose spec changed -- new workloads, new
geometries, a recalibrated library -- and everything else is a cache hit.

The store is a directory of append-only JSON-lines files.  Every cache
instance appends only to a segment file of its own,
``segments/seg-<pid>-<token>.jsonl``, and holds the directory
:class:`CacheLock` while it does, so any number of concurrent writers (the
campaign service, parallel CLI runs) never interleave one file.
``results.jsonl`` is the compacted base: only :meth:`ResultCache.compact`
writes it.  Reading loads the base, then every segment, so a directory whose
base file an older version appended to loads unchanged.

Re-putting a key appends a new line that supersedes the old one on the next
load; :meth:`ResultCache.compact` re-reads every data file *from disk* under
the lock (so a concurrent writer can neither be torn nor lost), rewrites the
base file with only live entries and removes the segment files it merged.
Every key and record stays byte-identical to the seed format.

Crash safety (PR 10) completes the torn-*read* tolerance with torn-*write*
tolerance.  Appends are atomic from the reader's point of view: the line is
written, flushed and fsynced **before** the in-memory index acknowledges the
key, a torn tail left in a segment by a failed write is newline-sealed
before the retry appends (so the fragment cannot glue onto a live record;
a killed writer's segment is never appended to again), and transient
append failures are retried under a bounded
:class:`~repro.resilience.retry.RetryPolicy`.  ``compact()`` commits through
a temp file + ``os.replace``, so a kill at any point leaves either the old
or the new state; a leftover temp file from an interrupted compaction is
discarded on the next load (``cache.recovered_compactions``).  Every seam is
instrumented with :func:`~repro.resilience.faults.fault_point` sites
(``cache.append*``, ``cache.compact.*``, ``cache.lock.acquire``) so the
chaos suite can prove each of these claims.
"""

from __future__ import annotations

import json
import os
import time
import uuid
from typing import Dict, Iterator, List, Optional

from repro.obs import log, metrics
from repro.resilience.faults import FaultInjected, fault_data, fault_point
from repro.resilience.retry import RetryPolicy, call_with_retry

__all__ = ["CacheLock", "CacheLockTimeout", "ResultCache"]

_RESULTS_FILE = "results.jsonl"
_SEGMENTS_DIR = "segments"
_LOCK_FILE = "cache.lock"

#: Seconds between attempts to create a held lock file.
_LOCK_POLL_S = 0.005

#: Bounded retry for appends: transient write failures (including injected
#: torn writes, which the seal protocol repairs) self-heal within ~0.1s.
_APPEND_POLICY = RetryPolicy(max_retries=3, base_backoff_s=0.002, max_backoff_s=0.05)


class CacheLockTimeout(TimeoutError):
    """Raised when the cache lock cannot be acquired within the timeout."""


class CacheLock:
    """Advisory inter-process lock file guarding appends and compaction.

    Acquisition atomically creates ``cache.lock`` in the cache directory
    (``O_CREAT | O_EXCL``) with the holder's pid inside.  Every append and
    every compaction takes this lock, so rewriting the base file can never
    race a writer into losing records.

    A lock whose holder died (pid gone, or the file is older than
    ``stale_after_s``) is broken and re-acquired, so a crashed compaction
    cannot wedge the cache forever.
    """

    def __init__(
        self,
        directory: str,
        *,
        timeout: float = 10.0,
        stale_after_s: float = 60.0,
    ):
        self.path = os.path.join(directory, _LOCK_FILE)
        self.timeout = timeout
        self.stale_after_s = stale_after_s

    def acquire(self) -> "CacheLock":
        deadline = time.monotonic() + self.timeout
        os.makedirs(os.path.dirname(self.path), exist_ok=True)
        while True:
            fault_point("cache.lock.acquire")
            try:
                fd = os.open(self.path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                self._break_if_stale(deadline)
                if time.monotonic() >= deadline:
                    raise CacheLockTimeout(
                        f"could not acquire cache lock {self.path} "
                        f"within {self.timeout}s"
                    )
                time.sleep(_LOCK_POLL_S)
            else:
                with os.fdopen(fd, "w", encoding="utf-8") as handle:
                    handle.write(str(os.getpid()))
                return self

    def _break_if_stale(self, deadline: Optional[float] = None) -> None:
        """Remove the lock file if its holder is provably gone."""
        try:
            age = time.time() - os.stat(self.path).st_mtime
            with open(self.path, "r", encoding="utf-8") as handle:
                pid = int(handle.read().strip() or "0")
        except (OSError, ValueError):
            # Vanished or half-written mid-race.  Re-check the deadline
            # before retrying: a lock file that keeps vanishing under stat
            # must not spin the acquire loop past its timeout.
            if deadline is not None and time.monotonic() >= deadline:
                raise CacheLockTimeout(
                    f"could not acquire cache lock {self.path} "
                    f"within {self.timeout}s"
                )
            return
        stale = age > self.stale_after_s
        if not stale and pid:
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                stale = True
            except OSError:  # sradlint: disable=ast.silent-except -- EPERM: holder exists but is not ours, keep waiting
                pass
        if stale:
            metrics.incr("cache.locks_broken")
            log.warning(
                "breaking stale cache lock",
                component="cache",
                path=self.path,
                holder_pid=pid,
                holder_age_s=round(age, 3),
            )
            try:
                os.unlink(self.path)
            except OSError:  # sradlint: disable=ast.silent-except -- a racing writer broke the stale lock first
                pass

    def release(self) -> None:
        try:
            os.unlink(self.path)
        except OSError:  # sradlint: disable=ast.silent-except -- lock already broken as stale; release is idempotent
            pass

    def __enter__(self) -> "CacheLock":
        return self.acquire()

    def __exit__(self, *exc_info) -> None:
        self.release()


class ResultCache:
    """Persistent ``key -> record`` store backed by JSON-lines files.

    Parameters
    ----------
    directory:
        Cache directory; created on first write.  ``None`` gives a purely
        in-memory cache (useful for tests and one-shot runs).  A path that
        exists but is not a directory raises ``NotADirectoryError``.
    backend:
        Accepts only ``"sharded"``, the one write path; anything else
        raises ``ValueError``.
    """

    def __init__(self, directory: Optional[str] = None, *, backend: str = "sharded"):
        if backend != "sharded":
            raise ValueError(f"unknown cache backend {backend!r}; available: sharded")
        if directory and os.path.exists(directory) and not os.path.isdir(directory):
            raise NotADirectoryError(f"{directory}: not a directory")
        self.directory = directory
        token = f"{os.getpid()}-{uuid.uuid4().hex[:8]}"
        self._segment_name = os.path.join(_SEGMENTS_DIR, f"seg-{token}.jsonl")
        self._records: Dict[str, dict] = {}
        self._loaded = directory is None
        # Whether this instance has verified its segment ends in a newline; a
        # write failure clears it so the next append re-seals.
        self._sealed = False

    # ------------------------------------------------------------------- io
    @property
    def path(self) -> Optional[str]:
        """Path of the base JSONL file (``None`` for in-memory caches)."""
        if self.directory is None:
            return None
        return os.path.join(self.directory, _RESULTS_FILE)

    def data_paths(self) -> List[str]:
        """Every data file, in deterministic load order: base, then segments.

        Overlapping keys resolve last-write-wins in this order; since keys
        are content hashes, two writers racing on one key wrote the same
        record, so the order between segments is benign.
        """
        if self.directory is None:
            return []
        paths: List[str] = []
        base = self.path
        if base is not None and os.path.exists(base):
            paths.append(base)
        segments = os.path.join(self.directory, _SEGMENTS_DIR)
        if os.path.isdir(segments):
            paths.extend(
                os.path.join(segments, name)
                for name in sorted(os.listdir(segments))
                if name.endswith(".jsonl")
            )
        return paths

    @staticmethod
    def _read_lines(path: str, sink: Dict[str, dict]) -> None:
        """Fold one JSONL file into ``sink`` (last line per key wins).

        A line that does not decode -- a crash mid-append leaves a torn
        trailing line -- is warned about and skipped, keeping the live
        prefix instead of poisoning the whole cache.
        """
        with open(path, "r", encoding="utf-8") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    entry = json.loads(line)
                except json.JSONDecodeError as error:
                    metrics.incr("cache.torn_lines")
                    log.warning(
                        "skipping undecodable cache line "
                        "(torn append from a killed run?)",
                        component="cache",
                        path=path,
                        line=line_number,
                        error=str(error),
                    )
                    continue
                key = entry.get("key")
                record = entry.get("record")
                if isinstance(key, str) and isinstance(record, dict):
                    sink[key] = record

    def _load(self) -> None:
        if self._loaded:
            return
        self._loaded = True
        self._recover_interrupted_compaction()
        for path in self.data_paths():
            self._read_lines(path, self._records)
        metrics.incr("cache.loads")
        metrics.gauge("cache.entries", len(self._records))

    def _recover_interrupted_compaction(self) -> None:
        """Discard a temp file left by a compaction that was killed mid-commit.

        The commit protocol (temp write -> ``os.replace``) means a leftover
        ``results.jsonl.tmp`` is always a dead compaction's possibly-partial
        merge: the base file and segments it read still hold every record,
        so the temp file is simply dropped.  A *live* compaction holds the
        cache lock, so the temp file is only touched once the lock is gone
        or provably stale.
        """
        if self.directory is None:
            return
        tmp_path = os.path.join(self.directory, _RESULTS_FILE + ".tmp")
        if not os.path.exists(tmp_path):
            return
        lock_path = os.path.join(self.directory, _LOCK_FILE)
        if os.path.exists(lock_path):
            CacheLock(self.directory)._break_if_stale()
            if os.path.exists(lock_path):
                return  # live compaction owns the temp file
        try:
            os.unlink(tmp_path)
        except OSError:  # sradlint: disable=ast.silent-except -- another loader recovered it first
            return
        metrics.incr("cache.recovered_compactions")
        log.warning(
            "recovered interrupted compaction (discarded temp file)",
            component="cache",
            path=tmp_path,
        )

    def _append(self, key: str, record: dict) -> None:
        if self.directory is None:
            return
        fault_point("cache.append")
        path = os.path.join(self.directory, self._segment_name)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        line = json.dumps({"key": key, "record": record}, sort_keys=True) + "\n"

        def attempt() -> None:
            with self.lock():
                self._write_line(path, line)

        call_with_retry(
            attempt,
            _APPEND_POLICY,
            retry_on=(OSError, FaultInjected),
            metric="cache.append_retries",
        )

    def _write_line(self, path: str, line: str) -> None:
        """One durable append: seal any torn tail, write, flush, fsync.

        The append is only acknowledged (by returning) once the bytes are
        flushed to the OS; callers index the key *after* this returns, so a
        reader can never observe a key whose record is not on disk.
        """
        payload = fault_data("cache.append.write", line)
        if not self._sealed:
            self._seal_tail(path)
        try:
            with open(path, "a", encoding="utf-8") as handle:
                handle.write(payload)
                handle.flush()
                os.fsync(handle.fileno())
        except Exception:
            self._sealed = False
            raise
        fault_point("cache.append.flush")
        if payload is not line:
            # An injected torn write left a fragment on disk, exactly as a
            # kill mid-write would.  Fail the append (it was never acked);
            # the retry re-seals the fragment and lands the full line.
            self._sealed = False
            raise FaultInjected(f"torn append left {len(payload)} bytes in {path}")

    def _seal_tail(self, path: str) -> None:
        """Newline-terminate a torn trailing line before appending to it.

        A write that failed midway leaves a partial last line; appending
        straight after it would glue the new record onto the fragment and
        corrupt *both*.  Sealing turns the fragment into its own (skipped,
        ``cache.torn_lines``) line so the new record stays intact.
        """
        try:
            size = os.path.getsize(path)
        except OSError:
            self._sealed = True  # file does not exist yet
            return
        if size:
            with open(path, "rb+") as handle:
                handle.seek(-1, os.SEEK_END)
                if handle.read(1) != b"\n":
                    handle.write(b"\n")
                    handle.flush()
                    os.fsync(handle.fileno())
                    metrics.incr("cache.sealed_tails")
                    log.warning(
                        "sealed torn trailing line before append",
                        component="cache",
                        path=path,
                    )
        self._sealed = True

    def lock(self) -> CacheLock:
        """The directory-level lock guarding appends and compaction."""
        if self.directory is None:
            raise ValueError("in-memory caches have no lock")
        return CacheLock(self.directory)

    # ------------------------------------------------------------ dict-like
    def __contains__(self, key: str) -> bool:
        self._load()
        return key in self._records

    def __len__(self) -> int:
        self._load()
        return len(self._records)

    def keys(self) -> Iterator[str]:
        """Iterate over cached job keys."""
        self._load()
        return iter(list(self._records))

    def get(self, key: str) -> Optional[dict]:
        """Return the cached record for ``key``, or ``None`` on a miss."""
        self._load()
        record = self._records.get(key)
        metrics.incr("cache.hits" if record is not None else "cache.misses")
        return record

    def put(self, key: str, record: dict) -> None:
        """Store ``record`` under ``key`` (persisted immediately).

        The durable append happens *before* the in-memory index update, so
        a key this cache acknowledges is always recoverable from disk; if
        the append fails (after bounded retries) the key stays invisible.
        """
        self._load()
        self._append(key, record)
        self._records[key] = record
        metrics.incr("cache.appends")
        metrics.gauge("cache.entries", len(self._records))

    # -------------------------------------------------------- housekeeping
    def records(self) -> List[dict]:
        """All live records (latest entry per key), in insertion order."""
        self._load()
        return list(self._records.values())

    def compact(self) -> None:
        """Merge every data file into the base file, keeping live entries.

        Runs under the :class:`CacheLock` and re-reads every file *from
        disk* (not from this instance's memory), so records appended by a
        concurrent writer this instance never saw survive the rewrite.
        Merged segment files are removed; segments created after the merge
        snapshot are left for the next compaction.
        """
        self._load()
        path = self.path
        if path is None:
            return
        sources = self.data_paths()
        if not sources:
            return
        metrics.incr("cache.compactions")
        with self.lock():
            sources = self.data_paths()  # re-list under the lock
            merged: Dict[str, dict] = {}
            for source in sources:
                self._read_lines(source, merged)
            fault_point("cache.compact.merge")
            tmp_path = path + ".tmp"
            with open(tmp_path, "w", encoding="utf-8") as handle:
                for key, record in merged.items():
                    handle.write(
                        json.dumps({"key": key, "record": record}, sort_keys=True)
                    )
                    handle.write("\n")
                handle.flush()
                os.fsync(handle.fileno())
            # Commit point: up to here a kill leaves the old state (plus a
            # temp file the next load discards); from the replace on, the
            # new state.  There is no in-between.
            fault_point("cache.compact.commit")
            os.replace(tmp_path, path)
            fault_point("cache.compact.cleanup")
            for source in sources:
                if source != path:
                    try:
                        os.unlink(source)
                    except OSError:  # sradlint: disable=ast.silent-except -- concurrent compactor removed the segment first
                        pass
        # Adopt the merged view: it may contain other writers' records.
        self._records = merged
        metrics.gauge("cache.entries", len(self._records))
